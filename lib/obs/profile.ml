(* Simulator self-profiling: where the *process* spends its wall-clock
   time while the simulated world runs.

   Accumulators are per-subsystem records in a small hashtable; a probe
   is two gettimeofday calls and a handful of float/int updates, cheap
   enough to leave on for every bench run. Re-entrant activations are
   depth-counted so only the outermost one accumulates wall time —
   nested regions (a range locate inside a range operation) never
   double-bill the same microseconds to one subsystem.

   Everything here is one-way instrumentation: probes read the wall
   clock and the GC and write private state. No message, no PRNG, no
   simulated-clock interaction — a profiled run counts byte-identical
   simulated metrics to an unprofiled one. The flip side: every number
   this module produces describes the host machine, not the seeded
   world, so exports must keep them out of same-seed byte
   comparisons. *)

type region = {
  mutable calls : int;
  mutable wall : float;  (* cumulative outermost wall seconds *)
  mutable depth : int;
  mutable opened : float;  (* entry instant of the outermost activation *)
}

type t = {
  regions : (string, region) Hashtbl.t;
  started : float;
  gc0 : Gc.stat;
  (* [Gc.quick_stat]'s minor_words only advances when a minor
     collection runs, so it counts whole minor heaps; [Gc.minor_words]
     reads the allocation pointer and is exact. *)
  minor0 : float;
  mutable stopped : float option;
}

let s_dispatch = "engine.dispatch"
let s_delivery = "bus.delivery"
let s_exact = "search.exact"
let s_range = "search.range"
let s_cache = "cache.probe"
let s_restructure = "restructure"
let s_repair = "repair"

let create () =
  {
    regions = Hashtbl.create 16;
    started = Unix.gettimeofday ();
    gc0 = Gc.quick_stat ();
    minor0 = Gc.minor_words ();
    stopped = None;
  }

let region t name =
  match Hashtbl.find_opt t.regions name with
  | Some r -> r
  | None ->
    let r = { calls = 0; wall = 0.; depth = 0; opened = 0. } in
    Hashtbl.add t.regions name r;
    r

let enter t name =
  let r = region t name in
  r.calls <- r.calls + 1;
  if r.depth = 0 then r.opened <- Unix.gettimeofday ();
  r.depth <- r.depth + 1

let leave t name =
  let r = region t name in
  if r.depth <= 0 then
    invalid_arg (Printf.sprintf "Profile.leave: %S is not open" name);
  r.depth <- r.depth - 1;
  if r.depth = 0 then r.wall <- r.wall +. (Unix.gettimeofday () -. r.opened)

let wrap t name f =
  enter t name;
  Fun.protect ~finally:(fun () -> leave t name) f

let stop t =
  match t.stopped with
  | Some _ -> ()
  | None -> t.stopped <- Some (Unix.gettimeofday ())

let calls t name =
  match Hashtbl.find_opt t.regions name with Some r -> r.calls | None -> 0

let wall_ms t name =
  match Hashtbl.find_opt t.regions name with
  | Some r -> r.wall *. 1000.
  | None -> 0.

let subsystems t =
  Hashtbl.fold (fun name r acc -> (name, r.calls, r.wall *. 1000.) :: acc)
    t.regions []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let elapsed_ms t =
  let upto =
    match t.stopped with Some s -> s | None -> Unix.gettimeofday ()
  in
  (upto -. t.started) *. 1000.

let events t = calls t s_dispatch

let events_per_s t =
  let ms = elapsed_ms t in
  if ms > 0. then float_of_int (events t) /. ms *. 1000. else 0.

let now_ms () = Unix.gettimeofday () *. 1000.

let gc_json t =
  let g = Gc.quick_stat () in
  let g0 = t.gc0 in
  Json.Obj
    [
      ("minor_collections", Json.Int (g.minor_collections - g0.minor_collections));
      ("major_collections", Json.Int (g.major_collections - g0.major_collections));
      ("compactions", Json.Int (g.compactions - g0.compactions));
      ("minor_words", Json.Float (Gc.minor_words () -. t.minor0));
      ("promoted_words", Json.Float (g.promoted_words -. g0.promoted_words));
      ("major_words", Json.Float (g.major_words -. g0.major_words));
      ("top_heap_words", Json.Int g.top_heap_words);
    ]

let json t =
  Json.Obj
    [
      ("wall_ms", Json.Float (elapsed_ms t));
      ("events", Json.Int (events t));
      ("events_per_s", Json.Float (events_per_s t));
      ("gc", gc_json t);
      ( "subsystems",
        Json.Obj
          (List.map
             (fun (name, calls, wall) ->
               ( name,
                 Json.Obj
                   [ ("calls", Json.Int calls); ("wall_ms", Json.Float wall) ]
               ))
             (subsystems t)) );
    ]

let table t =
  let total = elapsed_ms t in
  let rows =
    subsystems t
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-18s %10s %12s %7s\n" "subsystem" "calls" "wall ms"
       "share");
  List.iter
    (fun (name, calls, wall) ->
      Buffer.add_string buf
        (Printf.sprintf "%-18s %10d %12.2f %6.1f%%\n" name calls wall
           (if total > 0. then wall /. total *. 100. else 0.)))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "%-18s %10d %12.2f  (%.0f events/s)\n" "elapsed"
       (events t) total (events_per_s t));
  Buffer.contents buf
