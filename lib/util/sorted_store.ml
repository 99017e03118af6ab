module M = Ordered_multiset

type t = { mutable set : M.t }

let create () = { set = M.empty }
let length t = M.cardinal t.set
let is_empty t = M.is_empty t.set
let insert t k = t.set <- M.add k t.set

let mem t k = M.mem k t.set

let remove t k =
  match M.remove_one k t.set with
  | Some set ->
    t.set <- set;
    true
  | None -> false

let count t k = M.count k t.set
let min_key t = M.min_elt t.set
let max_key t = M.max_elt t.set
let nth t i = M.nth i t.set
let keys_in t ~lo ~hi = M.elements_in ~lo ~hi t.set

type view = M.t

let view t = t.set
let prepend_keys_in v ~lo ~hi acc = M.prepend_in ~lo ~hi v acc
let count_in t ~lo ~hi = M.count_in ~lo ~hi t.set

let take_split (a, b) t =
  t.set <- b;
  { set = a }

let split_lower_half t = take_split (M.split_rank (length t / 2) t.set) t

let split_upper_half t =
  let n = length t in
  let a, b = M.split_rank (n - (n / 2)) t.set in
  t.set <- a;
  { set = b }

let split_below t k = take_split (M.split_key k t.set) t

let split_at_or_above t k =
  let a, b = M.split_key k t.set in
  t.set <- a;
  { set = b }

let absorb dst src =
  dst.set <- M.union dst.set src.set;
  src.set <- M.empty

let to_list t = M.elements t.set
let of_list l = { set = List.fold_left (fun acc k -> M.add k acc) M.empty l }
