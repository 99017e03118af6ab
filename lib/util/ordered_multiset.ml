type t =
  | Empty
  | Node of { l : t; key : int; cnt : int; r : t; h : int; size : int }

let empty = Empty
let is_empty t = t = Empty

let height = function Empty -> 0 | Node { h; _ } -> h
let cardinal = function Empty -> 0 | Node { size; _ } -> size

let mk l key cnt r =
  Node
    {
      l;
      key;
      cnt;
      r;
      h = 1 + max (height l) (height r);
      size = cnt + cardinal l + cardinal r;
    }

(* Rebalance assuming l and r are each within 2 of balance (the classic
   AVL [bal] smart constructor). *)
let bal l key cnt r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Node { l = ll; key = lk; cnt = lc; r = lr; _ } ->
      if height ll >= height lr then mk ll lk lc (mk lr key cnt r)
      else (
        match lr with
        | Node { l = lrl; key = lrk; cnt = lrc; r = lrr; _ } ->
          mk (mk ll lk lc lrl) lrk lrc (mk lrr key cnt r)
        | Empty -> assert false)
    | Empty -> assert false
  else if hr > hl + 2 then
    match r with
    | Node { l = rl; key = rk; cnt = rc; r = rr; _ } ->
      if height rr >= height rl then mk (mk l key cnt rl) rk rc rr
      else (
        match rl with
        | Node { l = rll; key = rlk; cnt = rlc; r = rlr; _ } ->
          mk (mk l key cnt rll) rlk rlc (mk rlr rk rc rr)
        | Empty -> assert false)
    | Empty -> assert false
  else mk l key cnt r

let rec add x = function
  | Empty -> mk Empty x 1 Empty
  | Node { l; key; cnt; r; _ } ->
    if x = key then mk l key (cnt + 1) r
    else if x < key then bal (add x l) key cnt r
    else bal l key cnt (add x r)

let rec min_binding = function
  | Empty -> None
  | Node { l = Empty; key; cnt; _ } -> Some (key, cnt)
  | Node { l; _ } -> min_binding l

let rec remove_min = function
  | Empty -> Empty
  | Node { l = Empty; r; _ } -> r
  | Node { l; key; cnt; r; _ } -> bal (remove_min l) key cnt r

(* Merge two trees where every element of [l] < every element of [r]
   and their heights differ by at most 2-ish (internal use after a
   removal). *)
let merge_adjacent l r =
  match (l, r) with
  | Empty, t | t, Empty -> t
  | _, _ -> (
    match min_binding r with
    | Some (key, cnt) -> bal l key cnt (remove_min r)
    | None -> assert false)

let rec remove_one x = function
  | Empty -> None
  | Node { l; key; cnt; r; _ } ->
    if x = key then
      if cnt > 1 then Some (mk l key (cnt - 1) r) else Some (merge_adjacent l r)
    else if x < key then
      Option.map (fun l' -> bal l' key cnt r) (remove_one x l)
    else Option.map (fun r' -> bal l key cnt r') (remove_one x r)

let rec mem x = function
  | Empty -> false
  | Node { l; key; r; _ } ->
    if x = key then true else if x < key then mem x l else mem x r

let rec count x = function
  | Empty -> 0
  | Node { l; key; cnt; r; _ } ->
    if x = key then cnt else if x < key then count x l else count x r

let min_elt t = Option.map fst (min_binding t)

let rec max_elt = function
  | Empty -> None
  | Node { r = Empty; key; _ } -> Some key
  | Node { r; _ } -> max_elt r

let rec nth i = function
  | Empty -> invalid_arg "Ordered_multiset.nth: out of range"
  | Node { l; key; cnt; r; _ } ->
    let nl = cardinal l in
    if i < nl then nth i l
    else if i < nl + cnt then key
    else nth (i - nl - cnt) r

(* Join two trees of arbitrary heights around a (key, cnt) pivot with
   l < key < r — the standard logarithmic Set join. *)
let rec join l key cnt r =
  match (l, r) with
  | Empty, _ -> add_multi key cnt r
  | _, Empty -> add_multi_max key cnt l
  | Node ln, Node rn ->
    if ln.h > rn.h + 2 then bal ln.l ln.key ln.cnt (join ln.r key cnt r)
    else if rn.h > ln.h + 2 then bal (join l key cnt rn.l) rn.key rn.cnt rn.r
    else mk l key cnt r

(* Insert a (key, cnt) known to be smaller than everything in t. *)
and add_multi key cnt = function
  | Empty -> mk Empty key cnt Empty
  | Node { l; key = k; cnt = c; r; _ } -> bal (add_multi key cnt l) k c r

(* Insert a (key, cnt) known to be larger than everything in t. *)
and add_multi_max key cnt = function
  | Empty -> mk Empty key cnt Empty
  | Node { l; key = k; cnt = c; r; _ } -> bal l k c (add_multi_max key cnt r)

let concat l r =
  match min_binding r with
  | None -> l
  | Some (key, cnt) ->
    let rec drop_min = function
      | Empty -> Empty
      | Node { l = Empty; r; _ } -> r
      | Node { l; key; cnt; r; _ } -> bal (drop_min l) key cnt r
    in
    join l key cnt (drop_min r)

let rec split_key pivot = function
  | Empty -> (Empty, Empty)
  | Node { l; key; cnt; r; _ } ->
    if key < pivot then
      let m, hi = split_key pivot r in
      (join l key cnt m, hi)
    else
      let lo, m = split_key pivot l in
      (lo, join m key cnt r)

let rec split_rank k = function
  | Empty -> (Empty, Empty)
  | Node { l; key; cnt; r; _ } as t ->
    let n = cardinal t in
    if k <= 0 then (Empty, t)
    else if k >= n then (t, Empty)
    else
      let nl = cardinal l in
      if k < nl then
        let a, b = split_rank k l in
        (a, join b key cnt r)
      else if k <= nl + cnt then
        let in_left = k - nl in
        let left = if in_left = 0 then l else join l key in_left Empty in
        let right = if in_left = cnt then r else join Empty key (cnt - in_left) r in
        (left, right)
      else
        let a, b = split_rank (k - nl - cnt) r in
        (join l key cnt a, b)

let union a b =
  (* Fold the smaller multiset into the larger. *)
  let small, large = if cardinal a <= cardinal b then (a, b) else (b, a) in
  let rec fold_add t acc =
    match t with
    | Empty -> acc
    | Node { l; key; cnt; r; _ } ->
      let acc = fold_add l acc in
      let rec rep acc i = if i = 0 then acc else rep (add key acc) (i - 1) in
      fold_add r (rep acc cnt)
  in
  fold_add small large

(* [cnt] copies of [key] consed onto [acc]. *)
let rec rep key cnt acc = if cnt = 0 then acc else rep key (cnt - 1) (key :: acc)

let elements t =
  let rec go t acc =
    match t with
    | Empty -> acc
    | Node { l; key; cnt; r; _ } -> go l (rep key cnt (go r acc))
  in
  go t []

(* Right to left onto the accumulator, like [elements]: every matching
   key is consed exactly once and nothing else is allocated. *)
let rec prepend_in ~lo ~hi t acc =
  match t with
  | Empty -> acc
  | Node { l; key; cnt; r; _ } ->
    if key < lo then prepend_in ~lo ~hi r acc
    else if key > hi then prepend_in ~lo ~hi l acc
    else prepend_in ~lo ~hi l (rep key cnt (prepend_in ~lo ~hi r acc))

let elements_in ~lo ~hi t = prepend_in ~lo ~hi t []

let rec count_below pivot = function
  (* elements strictly below pivot *)
  | Empty -> 0
  | Node { l; key; cnt; r; _ } ->
    if key < pivot then cardinal l + cnt + count_below pivot r
    else count_below pivot l

let count_in ~lo ~hi t = max 0 (count_below (hi + 1) t - count_below lo t)

let check t =
  let fail fmt = Format.kasprintf failwith fmt in
  (* Verify ordering via bounds and structure bottom-up. *)
  let rec go lo hi = function
    | Empty -> (0, 0)
    | Node { l; key; cnt; r; h; size } ->
      (match lo with
      | Some b when key <= b -> fail "key %d <= lower bound %d" key b
      | Some _ | None -> ());
      (match hi with
      | Some b when key >= b -> fail "key %d >= upper bound %d" key b
      | Some _ | None -> ());
      if cnt <= 0 then fail "multiplicity %d at key %d" cnt key;
      let hl, sl = go lo (Some key) l in
      let hr, sr = go (Some key) hi r in
      if abs (hl - hr) > 2 then fail "imbalance at key %d: %d vs %d" key hl hr;
      if h <> 1 + max hl hr then fail "bad height at %d" key;
      if size <> cnt + sl + sr then fail "bad size at %d" key;
      (h, size)
  in
  ignore (go None None t)

let _ = ignore concat
