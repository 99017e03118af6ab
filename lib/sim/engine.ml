type probe = { before : unit -> unit; after : unit -> unit }

type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : float;
  mutable probe : probe option;
}

let create () = { queue = Event_queue.create (); clock = 0.; probe = None }
let now t = t.clock

let set_probe t p = t.probe <- p
let probe t = t.probe

let schedule t ~delay f =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  Event_queue.push t.queue ~time:(t.clock +. delay) f

let schedule_at t ~time f =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  Event_queue.push t.queue ~time f

let every t ~period f =
  if period <= 0. then invalid_arg "Engine.every: period <= 0";
  let rec tick () = if f () then schedule t ~delay:period tick in
  schedule t ~delay:period tick

let pending t = Event_queue.length t.queue

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    t.clock <- Event_queue.min_time t.queue;
    let f = Event_queue.pop_min t.queue in
    (match t.probe with
    | None -> f ()
    | Some p -> (
      (* The probe observes dispatch cost; it must never lose its
         closing half to an escaping event exception. Bracketed by
         hand so a profiled dispatch allocates no [Fun.protect]
         thunk. *)
      p.before ();
      match f () with
      | () -> p.after ()
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        p.after ();
        Printexc.raise_with_backtrace e bt));
    true
  end

let run t = while step t do () done

let run_until t horizon =
  let continue = ref true in
  while !continue do
    if
      (not (Event_queue.is_empty t.queue))
      && Event_queue.min_time t.queue <= horizon
    then ignore (step t)
    else continue := false
  done;
  if horizon > t.clock then t.clock <- horizon
