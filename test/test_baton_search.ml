(* Exact-match and range queries, validated against a flat oracle. *)

module N = Baton.Network
module Net = Baton.Net
module Node = Baton.Node
module Search = Baton.Search
module Range = Baton.Range
module Check = Baton.Check
module Rng = Baton_util.Rng

let build_with_data ~seed ~n ~keys =
  let net = N.build ~seed n in
  let rng = Rng.create (seed + 1) in
  let inserted =
    Array.init keys (fun _ -> Rng.int_in_range rng ~lo:1 ~hi:999_999_999)
  in
  Array.iter (N.insert net) inserted;
  (net, inserted)

let test_exact_reaches_responsible_node () =
  let net, _ = build_with_data ~seed:1 ~n:100 ~keys:500 in
  let rng = Rng.create 7 in
  for _ = 1 to 200 do
    let v = Rng.int_in_range rng ~lo:1 ~hi:999_999_999 in
    let { Search.node; _ } = Search.exact net ~from:(Net.random_peer net) v in
    Alcotest.(check bool) "responsible node found" true (Range.contains node.Node.range v)
  done

let test_lookup_finds_inserted_keys () =
  let net, inserted = build_with_data ~seed:2 ~n:100 ~keys:500 in
  Array.iter
    (fun k ->
      let r = Search.lookup net ~from:(Net.random_peer net) k in
      Alcotest.(check bool) "present" true r.Search.found)
    inserted

let test_lookup_misses_absent_keys () =
  let net, inserted = build_with_data ~seed:3 ~n:50 ~keys:200 in
  let present k = Array.exists (fun x -> x = k) inserted in
  let rng = Rng.create 11 in
  for _ = 1 to 100 do
    let k = Rng.int_in_range rng ~lo:1 ~hi:999_999_999 in
    if not (present k) then begin
      let r = Search.lookup net ~from:(Net.random_peer net) k in
      Alcotest.(check bool) "absent" false r.Search.found
    end
  done

let test_hop_bound () =
  (* The paper: exact queries answered within O(log N); allow the 1.44
     AVL factor plus a small constant for the adjacent fallbacks. *)
  let net, inserted = build_with_data ~seed:4 ~n:400 ~keys:400 in
  let bound =
    (2. *. 1.44 *. (log (float_of_int (Net.size net)) /. log 2.)) +. 6.
  in
  Array.iter
    (fun k ->
      let { Search.hops; _ } = Search.lookup net ~from:(Net.random_peer net) k in
      Alcotest.(check bool)
        (Printf.sprintf "%d hops <= %.0f" hops bound)
        true
        (float_of_int hops <= bound))
    inserted

let test_self_query_is_free () =
  let net, _ = build_with_data ~seed:5 ~n:30 ~keys:100 in
  List.iter
    (fun (node : Node.t) ->
      let v = node.Node.range.Range.lo in
      let { Search.node = found; hops; _ } = Search.exact net ~from:node v in
      Alcotest.(check int) "stays home" node.Node.id found.Node.id;
      Alcotest.(check int) "zero hops" 0 hops)
    (Net.peers net)

let test_range_query_matches_oracle () =
  let net, inserted = build_with_data ~seed:6 ~n:80 ~keys:600 in
  let rng = Rng.create 13 in
  for _ = 1 to 100 do
    let lo = Rng.int_in_range rng ~lo:1 ~hi:999_999_999 in
    let hi = lo + Rng.int rng 80_000_000 in
    let { Search.keys; _ } = Search.range net ~from:(Net.random_peer net) ~lo ~hi in
    let expect =
      Array.to_list inserted |> List.filter (fun k -> k >= lo && k <= hi)
      |> List.sort compare
    in
    Alcotest.(check (list int)) "range answer" expect keys
  done

let test_range_cost_is_log_plus_extent () =
  let net, _ = build_with_data ~seed:7 ~n:300 ~keys:300 in
  let rng = Rng.create 17 in
  for _ = 1 to 50 do
    let lo = Rng.int_in_range rng ~lo:1 ~hi:900_000_000 in
    let hi = lo + 50_000_000 in
    let r = Search.range net ~from:(Net.random_peer net) ~lo ~hi in
    let bound =
      (2. *. 1.44 *. (log (float_of_int (Net.size net)) /. log 2.))
      +. 6.
      +. float_of_int r.Search.nodes_visited
    in
    Alcotest.(check bool) "O(log N + X)" true (float_of_int r.Search.hops <= bound)
  done

let test_range_validation () =
  let net, _ = build_with_data ~seed:8 ~n:10 ~keys:10 in
  Alcotest.check_raises "lo > hi" (Invalid_argument "Search.range: lo > hi") (fun () ->
      ignore (Search.range net ~from:(Net.random_peer net) ~lo:5 ~hi:4))

let test_values_outside_domain_route_to_edges () =
  let net, _ = build_with_data ~seed:9 ~n:50 ~keys:100 in
  let nodes = Check.in_order_nodes net in
  let leftmost = List.hd nodes in
  let rightmost = List.nth nodes (List.length nodes - 1) in
  let { Search.node = l; _ } = Search.exact net ~from:(Net.random_peer net) (-5) in
  Alcotest.(check int) "below domain -> leftmost" leftmost.Node.id l.Node.id;
  let { Search.node = r; _ } =
    Search.exact net ~from:(Net.random_peer net) 2_000_000_000
  in
  Alcotest.(check int) "above domain -> rightmost" rightmost.Node.id r.Node.id

(* Property: a random batch of searches from random origins all land on
   the responsible node, on a randomly sized network. *)
let search_prop =
  let open QCheck2 in
  Test.make ~name:"exact search always reaches the responsible node" ~count:20
    Gen.(pair (int_range 2 120) (int_range 0 1000))
    (fun (n, salt) ->
      let net = N.build ~seed:(9000 + salt) n in
      let rng = Rng.create salt in
      let ok = ref true in
      for _ = 1 to 30 do
        let v = Rng.int_in_range rng ~lo:1 ~hi:999_999_999 in
        let { Search.node; _ } = Search.exact net ~from:(Net.random_peer net) v in
        if not (Range.contains node.Node.range v) then ok := false
      done;
      !ok)

(* Reference for [Search.next_hop], built as a full candidate list:
   every admissible sideways entry farthest first, then the child and
   the adjacent node on the target's side; the parent is appended as
   the escape hop once something was tried; the first untried entry
   wins. *)
let reference_next_hop (node : Node.t) v ~tried =
  let side = if Range.is_left_of node.Node.range v then `Right else `Left in
  let admissible (i : Baton.Link.info) =
    match side with
    | `Right -> i.Baton.Link.range.Range.lo <= v
    | `Left -> i.Baton.Link.range.Range.hi > v
  in
  let candidates =
    (Baton.Routing_table.entries (Node.table node side)
    |> List.rev_map snd |> List.filter admissible)
    @ List.filter_map Fun.id [ Node.child node side; Node.adjacent node side ]
  in
  match candidates with
  | [] -> `Boundary
  | primary -> (
    let escape =
      match Node.parent node with Some p when tried <> [] -> [ p ] | _ -> []
    in
    let fresh (i : Baton.Link.info) = not (List.mem i.Baton.Link.peer tried) in
    match List.filter fresh (primary @ escape) with
    | [] -> `Exhausted
    | i :: _ -> `Hop i.Baton.Link.peer)

let next_hop_matches_reference_prop =
  let open QCheck2 in
  Test.make ~name:"next_hop returns the list-based reference's head" ~count:40
    Gen.(pair (int_range 1 300) (int_range 0 100_000))
    (fun (n, salt) ->
      let net = N.build ~seed:(7000 + salt) n in
      let rng = Rng.create salt in
      let ok = ref true in
      for _ = 1 to 200 do
        let node = Net.random_peer net in
        (* Targets also fall outside the domain, where the edge nodes
           have no forward link. *)
        let v = Rng.int_in_range rng ~lo:(-100_000_000) ~hi:1_100_000_000 in
        if not (Range.contains node.Node.range v) then begin
          let links =
            List.map (fun (_, (i : Baton.Link.info)) -> i.Baton.Link.peer)
              (Node.neighbor_entries node)
            @ List.filter_map
                (Option.map (fun (i : Baton.Link.info) -> i.Baton.Link.peer))
                [
                  Node.parent node;
                  Node.child node `Left;
                  Node.child node `Right;
                  Node.adjacent node `Left;
                  Node.adjacent node `Right;
                ]
          in
          (* Now and then the node loses a link, so absent children,
             adjacents and sideways entries occur mid-tree too. *)
          if links <> [] && Rng.int rng 4 = 0 then
            Node.drop_links_for_peer node (Rng.pick_list rng links);
          let tried =
            if Rng.int rng 4 = 0 then links
            else List.filter (fun _ -> Rng.bool rng) links
          in
          let got =
            match Search.next_hop node v ~tried with
            | Search.Hop i -> `Hop i.Baton.Link.peer
            | Search.Exhausted -> `Exhausted
            | Search.Boundary -> `Boundary
          in
          if got <> reference_next_hop node v ~tried then ok := false
        end
      done;
      !ok)

(* A boundary node stays a boundary node whatever was tried; a node
   whose every forward link was tried is exhausted, not a boundary. *)
let test_next_hop_boundary_vs_exhausted () =
  let net = N.build ~seed:5 60 in
  let leftmost =
    List.find
      (fun (n : Node.t) -> Range.contains n.Node.range 1)
      (Net.peers net)
  in
  let all_peers = List.map (fun (n : Node.t) -> n.Node.id) (Net.peers net) in
  let is_boundary = function Search.Boundary -> true | _ -> false in
  let is_exhausted = function Search.Exhausted -> true | _ -> false in
  Alcotest.(check bool) "below the domain: boundary" true
    (is_boundary (Search.next_hop leftmost (-5) ~tried:[]));
  Alcotest.(check bool) "boundary even with everything tried" true
    (is_boundary (Search.next_hop leftmost (-5) ~tried:all_peers));
  Alcotest.(check bool) "forward links all tried: exhausted" true
    (is_exhausted (Search.next_hop leftmost 999_999_999 ~tried:all_peers));
  match Search.next_hop leftmost 999_999_999 ~tried:[] with
  | Search.Hop _ -> ()
  | Search.Exhausted | Search.Boundary -> Alcotest.fail "expected a hop"

let suite =
  [
    Alcotest.test_case "reaches responsible node" `Quick test_exact_reaches_responsible_node;
    Alcotest.test_case "finds inserted keys" `Quick test_lookup_finds_inserted_keys;
    Alcotest.test_case "misses absent keys" `Quick test_lookup_misses_absent_keys;
    Alcotest.test_case "hop bound" `Quick test_hop_bound;
    Alcotest.test_case "self query free" `Quick test_self_query_is_free;
    Alcotest.test_case "range matches oracle" `Quick test_range_query_matches_oracle;
    Alcotest.test_case "range cost bound" `Quick test_range_cost_is_log_plus_extent;
    Alcotest.test_case "range validation" `Quick test_range_validation;
    Alcotest.test_case "out-of-domain routing" `Quick test_values_outside_domain_route_to_edges;
    QCheck_alcotest.to_alcotest search_prop;
    QCheck_alcotest.to_alcotest next_hop_matches_reference_prop;
    Alcotest.test_case "next_hop boundary vs exhausted" `Quick
      test_next_hop_boundary_vs_exhausted;
  ]
