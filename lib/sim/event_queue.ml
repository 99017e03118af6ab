(* Implicit 4-ary min-heap over parallel arrays.

   Three flat arrays (times, seqs, payloads) replace the boxed-entry
   binary heap: a sift touches one cache line of keys instead of
   chasing a pointer per comparison, and the wider node halves the
   tree depth. Any min-heap pops in the same order here because
   (time, seq) is a total order — seq is unique — so switching the
   arity cannot change the delivery schedule.

   [payloads] is an [Obj.t array] seeded with an immediate dummy so it
   is allocated as a uniform array — an ['a array] created from a
   float payload would be flattened and then crash on a boxed one. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}

let dummy = Obj.repr 0
let initial_capacity = 64

let create () =
  {
    times = [||];
    seqs = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.times in
  let cap' = if cap = 0 then initial_capacity else 2 * cap in
  let times = Array.make cap' 0. in
  let seqs = Array.make cap' 0 in
  let payloads = Array.make cap' dummy in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

(* (time, seq) strictly-before, reading straight from the key arrays. *)
let before t i j =
  let ti = Array.unsafe_get t.times i and tj = Array.unsafe_get t.times j in
  ti < tj
  || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let swap t i j =
  let tm = Array.unsafe_get t.times i in
  Array.unsafe_set t.times i (Array.unsafe_get t.times j);
  Array.unsafe_set t.times j tm;
  let sq = Array.unsafe_get t.seqs i in
  Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs j);
  Array.unsafe_set t.seqs j sq;
  let pl = Array.unsafe_get t.payloads i in
  Array.unsafe_set t.payloads i (Array.unsafe_get t.payloads j);
  Array.unsafe_set t.payloads j pl

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 4 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let first = (4 * i) + 1 in
  if first < t.size then begin
    let last = min (first + 3) (t.size - 1) in
    let smallest = ref i in
    for c = first to last do
      if before t c !smallest then smallest := c
    done;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end
  end

let push t ~time payload =
  if t.size = Array.length t.times then grow t;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.payloads.(i) <- Obj.repr payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let min_time t =
  if t.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  t.times.(0)

(* Returns the bare payload: the caller reads the time first with
   [min_time], so a pop allocates nothing. *)
let pop_min t =
  if t.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let payload : 'a = Obj.obj t.payloads.(0) in
  let last = t.size - 1 in
  t.times.(0) <- t.times.(last);
  t.seqs.(0) <- t.seqs.(last);
  t.payloads.(0) <- t.payloads.(last);
  t.payloads.(last) <- dummy;
  t.size <- last;
  if last > 0 then sift_down t 0;
  payload

let clear t =
  t.times <- [||];
  t.seqs <- [||];
  t.payloads <- [||];
  t.size <- 0
