(* Per-link latency model. *)

module Latency = Baton_sim.Latency
module Bus = Baton_sim.Bus

let test_deterministic_per_pair () =
  let l = Latency.create ~seed:3 () in
  let a = Latency.of_pair l ~src:1 ~dst:2 in
  Alcotest.(check bool) "same pair same latency" true
    (a = Latency.of_pair l ~src:1 ~dst:2);
  let fresh = Latency.create ~seed:3 () in
  Alcotest.(check bool) "pure function of seed" true
    (a = Latency.of_pair fresh ~src:1 ~dst:2)

let test_asymmetric_pairs () =
  let l = Latency.create ~seed:4 () in
  Alcotest.(check bool) "directions differ in general" true
    (Latency.of_pair l ~src:1 ~dst:2 <> Latency.of_pair l ~src:2 ~dst:1)

let test_bounds () =
  let l = Latency.create ~seed:5 ~base_ms:10. ~jitter_ms:5. () in
  for src = 0 to 20 do
    for dst = 0 to 20 do
      if src <> dst then begin
        let ms = Latency.of_pair l ~src ~dst in
        Alcotest.(check bool) "above base" true (ms >= 10.);
        Alcotest.(check bool) "finite tail" true (ms < 10. +. (5. *. 40.))
      end
    done
  done;
  Alcotest.check_raises "negative" (Invalid_argument "Latency.create: negative latency")
    (fun () -> ignore (Latency.create ~base_ms:(-1.) ()))

let test_measure_sums_hops () =
  let l = Latency.create ~seed:6 () in
  let bus = Bus.create () in
  let result, ms =
    Latency.measure l bus (fun () ->
        Bus.send bus ~src:1 ~dst:2 ~kind:"x";
        Bus.send bus ~src:2 ~dst:3 ~kind:"x";
        "done")
  in
  Alcotest.(check string) "result passed through" "done" result;
  let expect = Latency.of_pair l ~src:1 ~dst:2 +. Latency.of_pair l ~src:2 ~dst:3 in
  Alcotest.(check bool) "sum of hops" true (Float.abs (ms -. expect) < 1e-9)

let test_measure_restores_trace_and_raises () =
  let l = Latency.create ~seed:7 () in
  let bus = Bus.create () in
  (match Latency.measure l bus (fun () -> failwith "boom") with
  | exception Failure m -> Alcotest.(check string) "exception propagates" "boom" m
  | _ -> Alcotest.fail "expected exception");
  (* The measurement subscription must have been removed. *)
  Alcotest.(check int) "no leftover subscriber" 0 (Bus.subscriber_count bus);
  let hits = ref 0 in
  let sub = Bus.subscribe bus (fun ~src:_ ~dst:_ ~kind:_ -> incr hits) in
  Bus.send bus ~src:1 ~dst:2 ~kind:"x";
  Bus.unsubscribe bus sub;
  Alcotest.(check int) "fresh hook in place" 1 !hits

let test_measure_zero_messages () =
  let l = Latency.create ~seed:8 () in
  let bus = Bus.create () in
  let (), ms = Latency.measure l bus (fun () -> ()) in
  Alcotest.(check bool) "zero" true (ms = 0.)

(* Regression: installing another observer (as `baton_cli trace` does)
   while a measurement is running must not drop either subscriber —
   the single-slot hook this replaces silently evicted one of them. *)
let test_measure_composes_with_other_subscribers () =
  let l = Latency.create ~seed:9 () in
  let bus = Bus.create () in
  let cli_hops = ref 0 in
  let cli = Bus.subscribe bus (fun ~src:_ ~dst:_ ~kind:_ -> incr cli_hops) in
  let (), ms =
    Latency.measure l bus (fun () ->
        Bus.send bus ~src:1 ~dst:2 ~kind:"x";
        (* A second observer installed mid-measurement also sticks. *)
        let mid_hops = ref 0 in
        let mid = Bus.subscribe bus (fun ~src:_ ~dst:_ ~kind:_ -> incr mid_hops) in
        Bus.send bus ~src:2 ~dst:3 ~kind:"x";
        Bus.unsubscribe bus mid;
        Alcotest.(check int) "mid-flight subscriber saw the hop" 1 !mid_hops)
  in
  let expect = Latency.of_pair l ~src:1 ~dst:2 +. Latency.of_pair l ~src:2 ~dst:3 in
  Alcotest.(check bool) "measurement saw both hops" true
    (Float.abs (ms -. expect) < 1e-9);
  Alcotest.(check int) "cli trace saw both hops" 2 !cli_hops;
  Bus.unsubscribe bus cli;
  Alcotest.(check int) "only cli left to remove" 0 (Bus.subscriber_count bus)

(* Reference: a fresh generator per pair, its first draw mapped through
   the jitter distribution. [of_pair] must equal it bit for bit. *)
let reference ~seed ~base_ms ~jitter_ms ~src ~dst =
  let rng = Baton_util.Rng.create (seed + (src * 1_000_003) + (dst * 7919)) in
  let u = Baton_util.Rng.float rng 1.0 in
  base_ms +. (-.jitter_ms *. log (1. -. (u *. 0.999)))

let of_pair_matches_generator_prop =
  let open QCheck2 in
  Test.make ~name:"of_pair equals the generator-based draw bit for bit"
    ~count:2000
    Gen.(
      quad (int_range (-1_000_000) 1_000_000) (int_bound 10_000_000)
        (int_bound 10_000_000) (pair (float_bound_inclusive 100.) (float_bound_inclusive 200.)))
    (fun (seed, src, dst, (base_ms, jitter_ms)) ->
      let l = Latency.create ~seed ~base_ms ~jitter_ms () in
      Int64.equal
        (Int64.bits_of_float (Latency.of_pair l ~src ~dst))
        (Int64.bits_of_float (reference ~seed ~base_ms ~jitter_ms ~src ~dst)))

let test_no_per_pair_state () =
  let l = Latency.create ~seed:11 () in
  let before = Obj.reachable_words (Obj.repr l) in
  let sum = ref 0. in
  for i = 0 to 99_999 do
    sum := !sum +. Latency.of_pair l ~src:i ~dst:(i + 1)
  done;
  Alcotest.(check bool) "values drawn" true (!sum > 0.);
  Alcotest.(check int) "10^5 distinct pairs leave the model's size unchanged"
    before
    (Obj.reachable_words (Obj.repr l))

let suite =
  [
    Alcotest.test_case "deterministic per pair" `Quick test_deterministic_per_pair;
    Alcotest.test_case "asymmetric" `Quick test_asymmetric_pairs;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "measure sums hops" `Quick test_measure_sums_hops;
    Alcotest.test_case "measure restores/raises" `Quick test_measure_restores_trace_and_raises;
    Alcotest.test_case "measure zero" `Quick test_measure_zero_messages;
    Alcotest.test_case "measure composes with subscribers" `Quick
      test_measure_composes_with_other_subscribers;
    QCheck_alcotest.to_alcotest of_pair_matches_generator_prop;
    Alcotest.test_case "no per-pair state" `Quick test_no_per_pair_state;
  ]
