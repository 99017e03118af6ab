(* The benchmark's own loop must simulate the same program as
   [Driver.run]: at a reduced size of each workload, with one seed for
   every input stream, both count the same messages, completions and
   failures and report the same exact-lookup percentiles. *)

module W = Workload
module Driver = Baton_runtime.Driver
module Timing = Baton_obs.Timing

let reduced (w : Suite.workload) ~seed =
  let cfg = w.config (W.same_seeds seed) in
  { cfg with W.n = min cfg.W.n 300; ops = min cfg.W.ops 600 }

let driver_report (cfg : W.config) ~seed =
  Driver.run
    (Driver.config ~seed ~keys_per_node:W.keys_per_node ~clients:W.clients ~ops:cfg.ops
       ~monitor_every_ms:(if cfg.observers then W.monitor_every_ms else 0.)
       ~series_every_ms:(if cfg.observers then W.series_every_ms else 0.)
       ~heat:cfg.observers ~oracle:cfg.observers ~fault_schedule:cfg.faults ~n:cfg.n ~mix:cfg.mix
       ())

let digest samples =
  let t = Timing.create () in
  List.iter (Timing.add t) samples;
  t

let same_program (w : Suite.workload) seed () =
  let cfg = reduced w ~seed in
  let ours = W.run cfg in
  let theirs = driver_report cfg ~seed in
  let exact = digest ours.W.latencies.(0) in
  let theirs_exact = List.assoc "exact" theirs.Driver.latencies in
  Alcotest.(check int) "messages" theirs.Driver.messages ours.W.messages;
  Alcotest.(check int) "completed" theirs.Driver.completed ours.W.completed;
  Alcotest.(check int) "failed" theirs.Driver.failed ours.W.failed;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "exact p%g" p)
        (Timing.percentile theirs_exact p) (Timing.percentile exact p))
    [ 50.; 99. ]

(* Tracing is a pure observer and its spans tile the measured phase. *)
let traced_run_is_neutral () =
  let w = List.find (fun (w : Suite.workload) -> w.name = "fault-recovery") Suite.workloads in
  let cfg = reduced w ~seed:2 in
  let plain = W.run cfg in
  let sp = Spans.create () in
  let traced = W.run ~tr:sp cfg in
  Alcotest.(check int) "messages" plain.W.messages traced.W.messages;
  Alcotest.(check int) "failed" plain.W.failed traced.W.failed;
  Alcotest.(check int) "no open span" 0 (Spans.depth sp);
  Alcotest.(check bool) "some repair ran" true (Spans.calls sp Spans.repair > 0);
  Alcotest.(check (float 1e-3)) "layers + residual = wall" traced.W.measured_s
    (traced.W.layers_s +. traced.W.residual_s)

let () =
  Alcotest.run "perfbench"
    [
      ( "same program as Driver.run",
        List.concat_map
          (fun (w : Suite.workload) ->
            List.map
              (fun seed ->
                Alcotest.test_case (Printf.sprintf "%s seed %d" w.name seed) `Quick
                  (same_program w seed))
              [ 1; 2 ])
          Suite.workloads );
      ("tracing", [ Alcotest.test_case "neutral and tiled" `Quick traced_run_is_neutral ]);
    ]
