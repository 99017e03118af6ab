(* Order-statistics AVL multiset: unit behaviour, structural invariant,
   qcheck model vs sorted list. *)

module M = Baton_util.Ordered_multiset
module Store = Baton_util.Sorted_store

let of_list l = List.fold_left (fun acc k -> M.add k acc) M.empty l

let test_empty () =
  Alcotest.(check bool) "empty" true (M.is_empty M.empty);
  Alcotest.(check int) "cardinal" 0 (M.cardinal M.empty);
  Alcotest.(check (option int)) "min" None (M.min_elt M.empty);
  Alcotest.(check (option int)) "max" None (M.max_elt M.empty);
  M.check M.empty

let test_add_and_duplicates () =
  let t = of_list [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5 ] in
  M.check t;
  Alcotest.(check int) "cardinal counts multiplicity" 11 (M.cardinal t);
  Alcotest.(check int) "count 5" 3 (M.count 5 t);
  Alcotest.(check int) "count 1" 2 (M.count 1 t);
  Alcotest.(check bool) "mem" true (M.mem 9 t);
  Alcotest.(check bool) "not mem" false (M.mem 7 t);
  Alcotest.(check (list int)) "elements sorted with duplicates"
    [ 1; 1; 2; 3; 3; 4; 5; 5; 5; 6; 9 ] (M.elements t)

let test_remove_one () =
  let t = of_list [ 1; 2; 2; 3 ] in
  (match M.remove_one 2 t with
  | Some t' ->
    M.check t';
    Alcotest.(check int) "one 2 left" 1 (M.count 2 t')
  | None -> Alcotest.fail "expected removal");
  Alcotest.(check bool) "absent key" true (M.remove_one 9 t = None)

let test_nth () =
  let t = of_list [ 10; 20; 20; 30 ] in
  Alcotest.(check int) "nth 0" 10 (M.nth 0 t);
  Alcotest.(check int) "nth 1" 20 (M.nth 1 t);
  Alcotest.(check int) "nth 2" 20 (M.nth 2 t);
  Alcotest.(check int) "nth 3" 30 (M.nth 3 t);
  Alcotest.check_raises "out of range" (Invalid_argument "Ordered_multiset.nth: out of range")
    (fun () -> ignore (M.nth 4 t))

let test_split_rank () =
  let t = of_list [ 1; 2; 2; 3; 4 ] in
  let a, b = M.split_rank 3 t in
  M.check a;
  M.check b;
  Alcotest.(check (list int)) "first three" [ 1; 2; 2 ] (M.elements a);
  Alcotest.(check (list int)) "rest" [ 3; 4 ] (M.elements b);
  (* Splitting inside a duplicate run. *)
  let a, b = M.split_rank 2 t in
  Alcotest.(check (list int)) "duplicate run split left" [ 1; 2 ] (M.elements a);
  Alcotest.(check (list int)) "duplicate run split right" [ 2; 3; 4 ] (M.elements b);
  (* Clamping. *)
  let a, b = M.split_rank (-1) t in
  Alcotest.(check int) "clamp low" 0 (M.cardinal a);
  Alcotest.(check int) "clamp low rest" 5 (M.cardinal b);
  let a, b = M.split_rank 99 t in
  Alcotest.(check int) "clamp high" 5 (M.cardinal a);
  Alcotest.(check int) "clamp high rest" 0 (M.cardinal b)

let test_split_key () =
  let t = of_list [ 1; 3; 3; 5 ] in
  let below, at_or_above = M.split_key 3 t in
  M.check below;
  M.check at_or_above;
  Alcotest.(check (list int)) "strictly below" [ 1 ] (M.elements below);
  Alcotest.(check (list int)) "at or above" [ 3; 3; 5 ] (M.elements at_or_above)

let test_union () =
  let t = M.union (of_list [ 1; 3; 3 ]) (of_list [ 2; 3 ]) in
  M.check t;
  Alcotest.(check (list int)) "multiset sum" [ 1; 2; 3; 3; 3 ] (M.elements t)

let test_ranges () =
  let t = of_list (List.init 20 (fun i -> i * 10)) in
  Alcotest.(check (list int)) "inclusive interval" [ 50; 60; 70 ]
    (M.elements_in ~lo:45 ~hi:75 t);
  Alcotest.(check int) "count_in" 3 (M.count_in ~lo:45 ~hi:75 t);
  Alcotest.(check int) "count_in empty" 0 (M.count_in ~lo:1000 ~hi:2000 t)

let test_balance_under_sequential_insertions () =
  (* Sorted insertions are the AVL worst case; the tree must stay
     logarithmic (check verifies heights). *)
  let t = of_list (List.init 2_000 Fun.id) in
  M.check t;
  Alcotest.(check int) "all present" 2_000 (M.cardinal t);
  Alcotest.(check int) "median via nth" 1_000 (M.nth 1_000 t)

let model_prop =
  let open QCheck2 in
  let op =
    Gen.oneof
      [
        Gen.map (fun v -> `Add v) (Gen.int_bound 30);
        Gen.map (fun v -> `Remove v) (Gen.int_bound 30);
        Gen.map (fun k -> `SplitRank k) (Gen.int_bound 40);
        Gen.map (fun k -> `SplitKey k) (Gen.int_bound 30);
      ]
  in
  Test.make ~name:"ordered_multiset agrees with sorted-list model" ~count:300
    Gen.(list_size (int_bound 60) op)
    (fun ops ->
      let t = ref M.empty in
      let model = ref [] in
      List.iter
        (fun op ->
          match op with
          | `Add v ->
            t := M.add v !t;
            model := List.sort compare (v :: !model)
          | `Remove v -> (
            match M.remove_one v !t with
            | Some t' ->
              assert (List.mem v !model);
              t := t';
              let dropped = ref false in
              model :=
                List.filter
                  (fun x ->
                    if x = v && not !dropped then (
                      dropped := true;
                      false)
                    else true)
                  !model
            | None -> assert (not (List.mem v !model)))
          | `SplitRank k ->
            let a, b = M.split_rank k !t in
            M.check a;
            M.check b;
            let k' = max 0 (min k (List.length !model)) in
            assert (M.elements a = List.filteri (fun i _ -> i < k') !model);
            t := M.union a b
          | `SplitKey k ->
            let a, b = M.split_key k !t in
            assert (M.elements a = List.filter (fun x -> x < k) !model);
            assert (M.elements b = List.filter (fun x -> x >= k) !model);
            t := M.union a b)
        ops;
      M.check !t;
      M.elements !t = !model)

(* Interval extraction, both through the tree ([elements_in]) and
   through a store view ([prepend_keys_in] onto a non-empty tail), must
   be exactly the filter of the full element list. Keys come from a
   small domain so duplicates are common, and bounds range past both
   ends so [lo > hi], points and empty answers all occur. *)
let interval_prop =
  let open QCheck2 in
  Test.make ~name:"elements_in and view reads equal List.filter over elements"
    ~count:500
    Gen.(
      triple (list_size (int_bound 60) (int_bound 30)) (int_range (-2) 32)
        (int_range (-2) 32))
    (fun (keys, lo, hi) ->
      let t = of_list keys in
      let expect = List.filter (fun k -> lo <= k && k <= hi) (M.elements t) in
      let store = Store.of_list keys in
      let view = Store.view store in
      let tail = [ 1_000; 1_001 ] in
      let via_view = Store.prepend_keys_in view ~lo ~hi tail in
      (* A view is a snapshot: later writes to the store do not show. *)
      Store.insert store lo;
      ignore (Store.remove store hi : bool);
      M.elements_in ~lo ~hi t = expect
      && Store.keys_in (Store.of_list keys) ~lo ~hi = expect
      && via_view = expect @ tail
      && Store.prepend_keys_in view ~lo ~hi [] = expect)

(* Reading k keys conses k cells (3 words each) and allocates nothing
   else beyond a constant: no copying per tree level. *)
let test_interval_allocation () =
  let t = of_list (List.init 4_096 Fun.id) in
  let store = Store.of_list (List.init 4_096 Fun.id) in
  List.iter
    (fun k ->
      let lo = (4_096 - k) / 2 in
      let hi = lo + k - 1 in
      let measure read =
        let before = Gc.minor_words () in
        let keys = read () in
        let words = Gc.minor_words () -. before in
        Alcotest.(check int) (Printf.sprintf "%d keys read" k) k (List.length keys);
        Alcotest.(check bool)
          (Printf.sprintf "k=%d: %.0f words <= 3k + 64" k words)
          true
          (words <= float_of_int ((3 * k) + 64))
      in
      measure (fun () -> M.elements_in ~lo ~hi t);
      measure (fun () -> Store.keys_in store ~lo ~hi);
      let view = Store.view store in
      measure (fun () -> Store.prepend_keys_in view ~lo ~hi []))
    [ 0; 1; 17; 500; 2_048; 4_096 ]

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "add/duplicates" `Quick test_add_and_duplicates;
    Alcotest.test_case "remove_one" `Quick test_remove_one;
    Alcotest.test_case "nth" `Quick test_nth;
    Alcotest.test_case "split_rank" `Quick test_split_rank;
    Alcotest.test_case "split_key" `Quick test_split_key;
    Alcotest.test_case "union" `Quick test_union;
    Alcotest.test_case "interval queries" `Quick test_ranges;
    Alcotest.test_case "sequential insert balance" `Quick test_balance_under_sequential_insertions;
    QCheck_alcotest.to_alcotest model_prop;
    QCheck_alcotest.to_alcotest interval_prop;
    Alcotest.test_case "interval read allocation" `Quick test_interval_allocation;
  ]
