(* The repo benchmark: one named workload per invocation.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs the workload's repetitions, each in its own process
   on its own sub-seed, checks every answer and prints the end-to-end
   metrics. A run is a fixed amount of work, so S is not used. --trace 1
   runs repetition 0 once untraced and once with spans around every
   layer call, prints the per-layer metrics with the tracing overhead,
   and writes the spans to .bench_out/spans-NAME.csv. The last line of
   standard output is one JSON object; a failed check exits 1.
   README.md says why each workload and metric exists. *)

open Suite
module Timing = Baton_obs.Timing
module Oracle = Baton_obs.Oracle

(* Repetition [j] of run seed [seed]: seeds never collide across runs. *)
let sub_seed (w : workload) ~seed j = (seed * w.reps) + j

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let fi = float_of_int
let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs

let percentile samples p =
  let t = Timing.create () in
  List.iter (Timing.add t) samples;
  Timing.percentile t p

(* Everything a repetition simulates. The same config must give the same
   value: a difference means host state leaked into the simulation. *)
let sim_digest (r : W.result) =
  ( (r.issued, r.completed, r.failed, r.messages, r.duration_ms),
    Array.map (fun l -> List.sort compare l) r.latencies,
    (Array.to_list r.op_calls, Array.to_list r.op_msgs, r.maint_msgs, r.repairs),
    Option.map Oracle.checked r.oracle )

(* Correctness checks, none inside a timed phase. *)
let check (r : W.result) =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if r.completed + r.failed <> r.issued then
    fail "completed %d + failed %d <> issued %d" r.completed r.failed r.issued;
  (match r.oracle with
  | Some o when Oracle.violation_count o > 0 ->
    fail "oracle found %d wrong answers" (Oracle.violation_count o)
  | _ -> ());
  if r.lookup_misses > 0 then
    fail "%d sampled loaded keys not found after the run" r.lookup_misses;
  List.rev !errs

let metric name unit v = (name, `Assoc [ ("value", `Float v); ("unit", `String unit) ])

let rec json_to_string = function
  | `Float f -> Printf.sprintf "%.17g" f
  | `Int i -> string_of_int i
  | `Bool b -> string_of_bool b
  | `String s -> Printf.sprintf "%S" s
  | `Assoc kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_to_string v)) kvs)
    ^ "}"

let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, m) ->
      match m with
      | `Assoc [ ("value", `Float v); ("unit", `String u) ] ->
        Printf.printf "%-30s %16.4f %s\n" name v u
      | _ -> ())
    metrics;
  print_endline
    (json_to_string
       (`Assoc
         [
           ("correct", `Bool correct);
           ("attempted", `Int attempted);
           ("failed", `Int failed);
           ("metrics", `Assoc metrics);
         ]))

let repetition (w : workload) cfg ?tr () =
  Gc.compact ();
  W.run ?tr ~sample_lookups:w.sample_lookups cfg

(* The host's speed drifts by up to 2x over minutes (other tenants share
   its cores), far more than any bound. So a fixed kernel built from the
   standard library alone (hash-table inserts and random lookups, no
   simulator code) is timed before and after every repetition, and host
   seconds are reported as reference seconds: scaled by [reference_s]
   over the kernel's time, [reference_s] being the kernel's time on a
   quiet 2-core Xeon VM. *)
let reference_s = 0.1

let calibrate () =
  let t0 = Unix.gettimeofday () in
  let n = 100_000 in
  let h = Hashtbl.create n in
  let rng = Random.State.make [| 42 |] in
  for i = 0 to n - 1 do
    Hashtbl.replace h (Random.State.int rng 1_000_000_000) (i, [ i ])
  done;
  let keys = Array.of_seq (Hashtbl.to_seq_keys h) in
  let acc = ref 0 in
  for _ = 1 to 300_000 do
    match Hashtbl.find_opt h keys.(Random.State.int rng (Array.length keys)) with
    | Some (i, l) -> acc := !acc + i + List.length (i :: l)
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc);
  Unix.gettimeofday () -. t0

let to_reference ~cal t = t *. reference_s /. cal

(* What the end-to-end metrics need from one repetition. *)
type rep = {
  setup_s : float;  (** reference seconds once [in_reference] ran *)
  measured_s : float;
  issued : int;
  completed : int;
  failed : int;
  messages : int;
  duration_ms : float;
  exact : float list;
  range : float list;
  minor_words : float;  (** allocated in the measured phase *)
  gc_counts : float * float * float;
      (** minor and major collections and promoted words in the measured
          phase *)
  peak_words : int;  (** major-heap high-water mark of the repetition *)
  digest : string;  (** of [sim_digest] *)
  errs : string list;
}

let summarize (r : W.result) =
  {
    setup_s = r.setup_s;
    measured_s = r.measured_s;
    issued = r.issued;
    completed = r.completed;
    failed = r.failed;
    messages = r.messages;
    duration_ms = r.duration_ms;
    exact = r.latencies.(0);
    range = r.latencies.(1);
    minor_words = r.gc_after.Gc.minor_words -. r.gc_before.Gc.minor_words;
    gc_counts =
      ( fi (r.gc_after.Gc.minor_collections - r.gc_before.Gc.minor_collections),
        fi (r.gc_after.Gc.major_collections - r.gc_before.Gc.major_collections),
        r.gc_after.Gc.promoted_words -. r.gc_before.Gc.promoted_words );
    peak_words = (Gc.quick_stat ()).Gc.top_heap_words;
    digest = Digest.string (Marshal.to_string (sim_digest r) []);
    errs = check r;
  }

let in_reference ~cal rep =
  { rep with setup_s = to_reference ~cal rep.setup_s; measured_s = to_reference ~cal rep.measured_s }

let untraced (w : workload) cfg () = summarize (repetition w cfg ())

(* Run [f] in a child process and return its result: every repetition
   starts from a fresh heap and reports its own heap high-water mark.
   An exception in the child comes back as [Error]. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let v = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc v [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let v = match Marshal.from_channel ic with v -> v | exception End_of_file -> Error "no result" in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    v

(* The kernel runs in a process of its own, forked before any
   repetition: its heap is warm after the first run, and no repetition
   inherits it, so the kernel's allocation never counts in a
   repetition's heap high-water mark. Asked for a budget, it repeats the
   kernel until that much time has passed, at least once, and answers
   with the mean. *)
let with_calibrator f =
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close resp_r;
    let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
    ignore (calibrate () : float);
    let rec mean budget n total =
      let total = total +. calibrate () in
      if total >= budget then total /. fi n else mean budget (n + 1) total
    in
    (try
       while true do
         Marshal.to_channel oc (mean (Marshal.from_channel ic : float) 1 0.) [];
         flush oc
       done
     with End_of_file -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    let oc = Unix.out_channel_of_descr req_w and ic = Unix.in_channel_of_descr resp_r in
    let kernel budget =
      Marshal.to_channel oc (budget : float) [];
      flush oc;
      (Marshal.from_channel ic : float)
    in
    Fun.protect
      ~finally:(fun () ->
        close_out oc;
        close_in ic;
        ignore (Unix.waitpid [] pid))
      (fun () -> f kernel)

(* Run each of [fs] in a child, timing the kernel before the first and
   after each: a child's kernel time is the mean of the two points that
   bracket it. The host's speed swings over seconds, so a point runs the
   kernel for [kernel_share] of the last child's wall time (0.5 s before
   the first). *)
let kernel_share = 0.05

let bracketed fs =
  with_calibrator (fun kernel ->
      let rec go before = function
        | [] -> []
        | f :: fs ->
          let t0 = Unix.gettimeofday () in
          let v = in_child f in
          let after = kernel (kernel_share *. (Unix.gettimeofday () -. t0)) in
          (v, (before +. after) /. 2.) :: go after fs
      in
      go (kernel 0.5) fs)

let raised e = "a repetition raised " ^ e

(* Every repetition of the workload once: a fixed amount of work, so
   every metric compares across hosts and commits. *)
let end_to_end (w : workload) ~seed =
  let cfgs = List.init w.reps (fun j -> w.config (seeds w (sub_seed w ~seed j))) in
  let results =
    List.map2
      (fun cfg (r, cal) -> (cfg, Result.map (in_reference ~cal) r))
      cfgs
      (bracketed (List.map (untraced w) cfgs))
  in
  let reps = List.filter_map (fun (_, r) -> Result.to_option r) results in
  let errs =
    List.concat_map
      (fun (_, r) -> match r with Ok r -> r.errs | Error e -> [ raised e ])
      results
  in
  (* A repetition that raised issued its whole plan and completed none. *)
  let attempted = sum (fun (cfg, _) -> cfg.W.ops) results in
  let failed =
    sum (fun (cfg, r) -> match r with Ok r -> r.failed | Error _ -> cfg.W.ops) results
  in
  let total f = List.fold_left (fun a r -> a +. f r) 0. reps in
  let completed = sum (fun r -> r.completed) reps in
  let exact = List.concat_map (fun r -> r.exact) reps in
  let range = List.concat_map (fun r -> r.range) reps in
  let metrics =
    if reps = [] then []
    else
      [
        metric "setup_s" "s" (median (List.map (fun r -> r.setup_s) reps));
        metric "host_ops_per_s" "ops/s" (fi completed /. total (fun r -> r.measured_s));
        metric "alloc_words_per_op" "words" (total (fun r -> r.minor_words) /. fi completed);
        metric "peak_heap_mb" "MiB"
          (median (List.map (fun r -> fi (r.peak_words * (Sys.word_size / 8)) /. 1048576.) reps));
        metric "msgs_per_op" "msgs" (fi (sum (fun r -> r.messages) reps) /. fi completed);
        metric "sim_ops_per_s" "ops/s" (fi completed /. total (fun r -> r.duration_ms) *. 1000.);
        metric "exact_p50_ms" "ms" (percentile exact 50.);
        metric "exact_p99_ms" "ms" (percentile exact 99.);
        metric "range_p95_ms" "ms" (percentile range 95.);
        metric "completed_frac" "ratio" (fi completed /. fi (sum (fun r -> r.issued) reps));
      ]
  in
  Printf.printf "%s: %d repetitions, %d ops (%d exact, %d range), %d failed\n" w.name w.reps
    attempted (List.length exact) (List.length range) failed;
  (errs, attempted, failed, metrics)

(* The traced repetition, in the child that runs it: its checks, its
   summary and its layer metrics. The spans are written to .bench_out
   before the child exits. *)
let traced (w : workload) cfg =
  let sp = Spans.create () in
  let r = repetition w cfg ~tr:sp () in
  (* The layers' self times and the residual must tile the measured
     wall: a gap or an overlap means a span was lost or counted twice. *)
  let tiled = r.layers_s +. r.residual_s in
  let errs =
    check r
    @ (if Spans.depth sp = 0 then [] else [ "spans left open after the run" ])
    @
    if Float.abs (tiled -. r.measured_s) <= 0.001 +. (0.001 *. r.measured_s) then []
    else
      [
        Printf.sprintf "layer self times + residual = %.6f s, measured wall = %.6f s" tiled
          r.measured_s;
      ]
  in
  let calls l = fi (Spans.calls sp l) in
  let self l = Spans.self_ms sp l in
  let words l = Spans.self_words sp l in
  let ratio a b = if b = 0. then 0. else a /. b in
  let kind k = fi r.op_calls.(k) and kmsgs k = fi r.op_msgs.(k) in
  let oracle f = match r.oracle with Some o -> fi (f o) | None -> 0. in
  let metrics =
    [
      metric "join.calls" "count" (calls Spans.join);
      metric "join.self_ms" "ms" (self Spans.join);
      metric "join.msgs_per_call" "msgs"
        (ratio (fi r.setup_join_msgs +. kmsgs 3) (fi (cfg.W.n - 1) +. kind 3));
      metric "join.words_per_call" "words" (ratio (words Spans.join) (calls Spans.join));
      metric "bulk_insert.self_ms" "ms" (self Spans.bulk_insert);
      metric "bulk_insert.words" "words" (words Spans.bulk_insert);
      metric "datagen.self_ms" "ms" (self Spans.datagen);
      metric "engine.events" "count" (calls Spans.engine);
      metric "engine.self_ms" "ms" (self Spans.engine);
      metric "engine.words_per_event" "words" (ratio (words Spans.engine) (calls Spans.engine));
      metric "bus.deliveries" "count" (calls Spans.bus);
      metric "bus.self_ms" "ms" (self Spans.bus);
      metric "bus.retries" "count" (fi r.retries);
      metric "bus.partition_drops" "count" (fi r.partition_drops);
      metric "bus.gray_drops" "count" (fi r.gray_drops);
      metric "exact.calls" "count" (kind 0);
      metric "exact.msgs_per_call" "msgs" (ratio (kmsgs 0) (kind 0));
      metric "range.calls" "count" (kind 1);
      metric "range.msgs_per_call" "msgs" (ratio (kmsgs 1) (kind 1));
      metric "insert.calls" "count" (kind 2);
      metric "insert.msgs_per_call" "msgs" (ratio (kmsgs 2) (kind 2));
      metric "leave.calls" "count" (kind 4);
      metric "leave.msgs_per_call" "msgs" (ratio (kmsgs 4) (kind 4));
      metric "leave.self_ms" "ms" (self Spans.leave);
      metric "maint.msgs" "msgs" (fi r.maint_msgs);
      metric "restructure.msgs" "msgs" (fi r.restructure_msgs);
      metric "repair.calls" "count" (fi r.repairs);
      metric "repair.self_ms" "ms" (self Spans.repair);
      metric "crash.calls" "count" (fi r.crashes);
      metric "monitor.ticks" "count" (fi r.monitor_ticks);
      metric "monitor.self_ms" "ms" (self Spans.monitor);
      metric "monitor.words" "words" (words Spans.monitor);
      metric "series.self_ms" "ms" (self Spans.series);
      metric "oracle.checks" "count" (oracle Oracle.checked);
      metric "oracle.self_ms" "ms" (self Spans.oracle);
      metric "oracle.violations" "count" (oracle Oracle.violation_count);
      metric "runtime.residual_ms" "ms" (r.residual_s *. 1000.);
      metric "trace.measured_ms" "ms" (r.measured_s *. 1000.);
      metric "trace.spans" "count" (fi (Spans.count sp));
    ]
  in
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Spans.write_csv sp (Filename.concat dir ("spans-" ^ w.name ^ ".csv"));
  (errs, summarize r, metrics)

(* Repetition 0 untraced, then traced, each in a fresh process so
   neither inherits the other's heap. *)
let per_layer (w : workload) cfg =
  match bracketed [ (fun () -> ([], untraced w cfg (), [])); (fun () -> traced w cfg) ] with
  | [ (Ok (_, plain, _), cal0); (Ok (errs, traced, metrics), cal1) ] ->
    let ops_per_s (r : rep) ~cal = fi r.completed /. to_reference ~cal r.measured_s in
    let plain_ops_per_s = ops_per_s plain ~cal:cal0 in
    let traced_ops_per_s = ops_per_s traced ~cal:cal1 in
    let minor, major, promoted = plain.gc_counts in
    let errs =
      errs @ if traced.digest = plain.digest then [] else [ "tracing changed the simulated run" ]
    in
    ( errs,
      plain.issued,
      plain.failed,
      metrics
      @ [
          metric "gc.minor_collections" "count" minor;
          metric "gc.major_collections" "count" major;
          metric "gc.promoted_words" "words" promoted;
          metric "trace.untraced_host_ops_per_s" "ops/s" plain_ops_per_s;
          metric "trace.traced_host_ops_per_s" "ops/s" traced_ops_per_s;
          metric "trace.overhead_frac" "ratio" (1. -. (traced_ops_per_s /. plain_ops_per_s));
          metric "host.calibration_ms" "ms" (cal1 *. 1000.);
        ] )
  | results ->
    ( List.concat_map (function Error e, _ -> [ raised e ] | Ok _, _ -> []) results,
      cfg.W.ops,
      cfg.W.ops,
      [] )

let () =
  let workload = ref "" and seed = ref 1 and trace = ref 0 in
  let scenario = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ( "--seconds",
        Arg.Int ignore,
        "S accepted and ignored: a run is a fixed amount of work, sized to take more than 10 s" );
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or traced per-layer metrics");
      ( "--scenario-seed",
        Arg.Int (fun s -> scenario := Some s),
        "N scenario seed of a workload that pins one (fault-recovery: default 2, held-out 5)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> String.equal w.name !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  let w =
    match (!scenario, w.scenario) with
    | None, _ -> w
    | Some _, Some _ -> { w with scenario = !scenario }
    | Some _, None ->
      Printf.eprintf "workload %s draws its scenario from --seed\n" w.name;
      exit 2
  in
  let errs, attempted, failed, metrics =
    if !trace = 0 then end_to_end w ~seed:!seed
    else per_layer w (w.config (seeds w (sub_seed w ~seed:!seed 0)))
  in
  List.iter (fun e -> Printf.eprintf "CHECK FAILED: %s\n" e) errs;
  emit ~correct:(errs = []) ~attempted ~failed metrics;
  if errs <> [] then exit 1
