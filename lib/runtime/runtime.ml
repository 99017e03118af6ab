(* Concurrent discrete-event runtime.

   Executes BATON operations as interleaved fibers on the simulation
   {!Engine}. The protocol code in [lib/core] is reused unchanged: an
   operation runs as ordinary OCaml until it transmits a message, at
   which point the [Net] hop hook performs an effect; the handler below
   captures the continuation and schedules its resumption when the
   engine's clock reaches the delivery instant given by the {!Latency}
   model (or the timeout interval, for messages that get no answer).
   Between suspension and resumption, other fibers run — so joins,
   leaves and queries interleave at message granularity, like on a real
   network, and an operation's completion time is its critical path,
   not its hop sum.

   Determinism: every context switch goes through the engine's event
   queue, which orders events by (time, insertion sequence) — see
   {!Baton_sim.Event_queue}. Delivery times come from the seeded
   latency model and fault decisions from the seeded fault PRNG in bus
   order, so a fixed seed fixes the entire interleaving. Nothing here
   reads wall-clock time or OS randomness. *)

module Engine = Baton_sim.Engine
module Latency = Baton_sim.Latency
module Net = Baton.Net

type t = {
  engine : Engine.t;
  latency : Latency.t;
  timeout_ms : float;
  net : Net.t;
  (* Per-destination in-flight message accounting: a message is "in
     the queue" of its destination from transmission to delivery. Dense
     by peer id, like [Metrics]' per-node counters: ids are small
     consecutive ints, so a hop costs two array cells and no lookup. *)
  mutable inflight : int array;
  mutable depth_max : int array;
  mutable live_fibers : int;
}

type _ Effect.t +=
  | Wait : float -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Fork : (unit -> 'a) * (unit -> 'b) -> ('a * 'b) Effect.t

let default_timeout_ms = 300.

let create ?(timeout_ms = default_timeout_ms) ?latency net =
  if timeout_ms <= 0. then invalid_arg "Runtime.create: timeout_ms <= 0";
  let latency =
    match latency with Some l -> l | None -> Latency.create ()
  in
  {
    engine = Engine.create ();
    latency;
    timeout_ms;
    net;
    inflight = [||];
    depth_max = [||];
    live_fibers = 0;
  }

let engine t = t.engine
let net t = t.net
let latency t = t.latency
let timeout_ms t = t.timeout_ms
let now t = Engine.now t.engine
let live_fibers t = t.live_fibers

(* --- Fiber execution ----------------------------------------------- *)

let sleep delay =
  if delay < 0. then invalid_arg "Runtime.sleep: negative delay";
  Effect.perform (Wait delay)

let both f g = Effect.perform (Fork (f, g))

let suspend register = Effect.perform (Suspend register)

(* Run [f] as a fiber under the effect handler. Children forked with
   [both] run under their own [exec] (the handler closes over the same
   [t]), and the parent's continuation resumes only when both are
   done. All continuations are one-shot and always resumed exactly
   once — the engine drains its queue completely — so no continuation
   is leaked.

   Every suspension point snapshots the tracer's ambient causal state
   ([Net.trace_mark]) and reinstates it when the fiber resumes: between
   the capture and the resumption other fibers run and move the ambient
   episode/parent to their own, so without the restore an operation's
   hops would chain into whichever trace happened to run last. Free
   (a [None]) when no tracer is installed. *)
let rec exec : type a. t -> (unit -> a) -> ((a, exn) result -> unit) -> unit =
 fun t f on_done ->
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun v -> on_done (Ok v));
      exnc = (fun e -> on_done (Error e));
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Wait delay ->
            Some
              (fun (k : (b, unit) continuation) ->
                let m = Net.trace_mark t.net in
                Engine.schedule t.engine ~delay (fun () ->
                    Net.restore_trace_mark t.net m;
                    continue k ()))
          | Suspend register ->
            Some
              (fun (k : (b, unit) continuation) ->
                let m = Net.trace_mark t.net in
                (* The resumption is scheduled, not run inline, so a
                   wake-up from another fiber's stack still interleaves
                   through the deterministic event queue. *)
                register (fun () ->
                    Engine.schedule t.engine ~delay:0. (fun () ->
                        Net.restore_trace_mark t.net m;
                        continue k ())))
          | Fork (fa, fb) ->
            Some
              (fun (k : (b, unit) continuation) ->
                (* Both children inherit the fork point's causal state —
                   their hop chains branch from the same parent span —
                   and the parent resumes with it too. *)
                let m = Net.trace_mark t.net in
                let ra = ref None and rb = ref None in
                let join () =
                  match (!ra, !rb) with
                  | Some a, Some b -> (
                    Net.restore_trace_mark t.net m;
                    match (a, b) with
                    | Ok va, Ok vb -> continue k (va, vb)
                    | Error e, _ | _, Error e -> discontinue k e)
                  | _ -> ()
                in
                (* The left child runs first (until its first
                   suspension), then the right — a deterministic start
                   order; from then on the event queue interleaves
                   them. *)
                exec t
                  (fun () ->
                    Net.restore_trace_mark t.net m;
                    fa ())
                  (fun r ->
                    ra := Some r;
                    join ());
                exec t
                  (fun () ->
                    Net.restore_trace_mark t.net m;
                    fb ())
                  (fun r ->
                    rb := Some r;
                    join ()))
          | _ -> None);
    }

let spawn ?at t f ~on_done =
  t.live_fibers <- t.live_fibers + 1;
  (* The fiber body starts from the causal state at the spawn call —
     for a driver spawning top-level operations, a clean slate — not
     from whatever episode is ambient when the engine reaches it. *)
  let m = Net.trace_mark t.net in
  let fiber () =
    exec t
      (fun () ->
        Net.restore_trace_mark t.net m;
        f ())
      (fun r ->
        t.live_fibers <- t.live_fibers - 1;
        on_done r)
  in
  match at with
  | None -> Engine.schedule t.engine ~delay:0. fiber
  | Some time -> Engine.schedule_at t.engine ~time fiber

(* --- Hop suspension ------------------------------------------------- *)

(* A zero-filled copy of [a] covering index [i], grown by doubling. *)
let grown a i =
  let a' = Array.make (max 64 (max (i + 1) (2 * Array.length a))) 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let hop_wait t : Net.hop_wait =
 fun ~src ~dst ~kind:_ ~outcome ->
  match outcome with
  | Net.Delivered ->
    (* A gray endpoint stretches the delivery: the pair's base latency
       times the worse endpoint's slowdown factor (1.0 when neither end
       is gray — see [Bus.latency_factor]). *)
    let delay =
      Latency.of_pair t.latency ~src ~dst
      *. Baton_sim.Bus.latency_factor (Net.bus t.net) ~src ~dst
    in
    if dst >= Array.length t.inflight then begin
      t.inflight <- grown t.inflight dst;
      t.depth_max <- grown t.depth_max dst
    end;
    let d = t.inflight.(dst) + 1 in
    t.inflight.(dst) <- d;
    if d > t.depth_max.(dst) then t.depth_max.(dst) <- d;
    Effect.perform (Wait delay);
    (* Re-read the field: another fiber may have grown the array while
       this one waited. *)
    t.inflight.(dst) <- t.inflight.(dst) - 1
  | Net.Timed_out ->
    (* The sender learns nothing until its retransmission timer fires;
       the destination's queue is not charged. *)
    Effect.perform (Wait t.timeout_ms)

(* Drive every spawned fiber to completion. The hop hook is installed
   only for the duration of the run: outside it (setup, teardown,
   synchronous use of the same network) operations stay synchronous. *)
let run t =
  Net.set_hop_wait t.net (Some (hop_wait t));
  Fun.protect
    ~finally:(fun () -> Net.set_hop_wait t.net None)
    (fun () -> Engine.run t.engine)

(* --- Queue-depth statistics ---------------------------------------- *)

(* Only destinations that ever received a message have a depth (at
   least 1). *)
let queue_depths t =
  let acc = ref [] in
  for node = Array.length t.depth_max - 1 downto 0 do
    if t.depth_max.(node) > 0 then acc := (node, t.depth_max.(node)) :: !acc
  done;
  !acc

let queue_depth_max t = Array.fold_left max 0 t.depth_max

let queue_depth_mean t =
  let n, sum =
    Array.fold_left
      (fun (n, sum) d -> if d > 0 then (n + 1, sum + d) else (n, sum))
      (0, 0) t.depth_max
  in
  if n = 0 then 0. else float_of_int sum /. float_of_int n

(* --- Cooperative mutual exclusion ----------------------------------- *)

(* Membership changes (join, leave, repair) are multi-step protocols
   that the paper runs one at a time; racing two of them against each
   other at hop granularity would interleave *mutations*, which no
   locking exists for at the protocol level. The workload driver
   serializes them with this lock while queries interleave freely —
   queries racing a mid-flight membership change is exactly the
   staleness the routing layer tolerates. *)
module Lock = struct
  type nonrec t = { mutable held : bool; waiters : (unit -> unit) Queue.t }

  let create () = { held = false; waiters = Queue.create () }
  let held l = l.held

  let acquire l =
    if l.held then suspend (fun resume -> Queue.add resume l.waiters)
    else l.held <- true

  let release l =
    if not l.held then invalid_arg "Runtime.Lock.release: not held";
    match Queue.take_opt l.waiters with
    | Some resume ->
      (* Hand-off: the lock stays held, the next waiter resumes. *)
      resume ()
    | None -> l.held <- false

  let with_lock l f =
    acquire l;
    match f () with
    | v ->
      release l;
      v
    | exception e ->
      release l;
      raise e
end
