(* In-memory span recorder for the benchmark's traced runs.

   Every span has a layer name, a host start and end time, a parent span
   and the id of the planned operation it worked for (-1 for none).
   Synchronous spans nest on a stack; closing one charges its duration,
   minus the time and minor-heap words its children covered, to its
   layer's self totals. Spans are written out only when the run ends.

   Fibers suspend with spans open: a repair, join or leave holds the
   membership lock across many engine dispatches. [suspend] closes the
   fiber's open spans above the current dispatch and [resume] reopens
   them under the dispatch that resumes the fiber, so each layer is
   charged only for the host time its code actually ran. *)

let layers =
  [|
    "setup";
    "datagen";
    "join";
    "bulk_insert";
    "engine";
    "bus";
    "monitor";
    "series";
    "oracle";
    "repair";
    "leave";
    "op.exact";
    "op.range";
    "op.insert";
    "op.join";
    "op.leave";
  |]

let layer name =
  let rec find i =
    if i = Array.length layers then invalid_arg ("Spans.layer: " ^ name)
    else if String.equal layers.(i) name then i
    else find (i + 1)
  in
  find 0

let setup = layer "setup"
let datagen = layer "datagen"
let join = layer "join"
let bulk_insert = layer "bulk_insert"
let engine = layer "engine"
let bus = layer "bus"
let monitor = layer "monitor"
let series = layer "series"
let oracle = layer "oracle"
let repair = layer "repair"
let leave = layer "leave"

let op_layer = function
  | "exact" -> layer "op.exact"
  | "range" -> layer "op.range"
  | "insert" -> layer "op.insert"
  | "join" -> layer "op.join"
  | "leave" -> layer "op.leave"
  | k -> invalid_arg ("Spans.op_layer: " ^ k)

let now () = Unix.gettimeofday ()

(* Closed spans, column-wise so a million of them stay compact. *)
type store = {
  mutable len : int;
  mutable id : int array;
  mutable name : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable start : Float.Array.t;
  mutable stop : Float.Array.t;
}

(* One open span. *)
type frame = {
  id : int;
  f_layer : int;
  f_start : float;
  f_words : float;
  mutable child_s : float;
  mutable child_words : float;
}

type t = {
  store : store;
  mutable next_id : int;
  mutable stack : frame list;
  mutable cur_op : int;
  mutable gap_s : float;
  mutable last_root_stop : float;
  self_s : float array;
  self_words : float array;
  calls : int array;
}

let create () =
  let n = Array.length layers in
  {
    store =
      {
        len = 0;
        id = Array.make 1024 0;
        name = Array.make 1024 0;
        parent = Array.make 1024 0;
        op = Array.make 1024 0;
        start = Float.Array.make 1024 0.;
        stop = Float.Array.make 1024 0.;
      };
    next_id = 0;
    stack = [];
    cur_op = -1;
    gap_s = 0.;
    last_root_stop = 0.;
    self_s = Array.make n 0.;
    self_words = Array.make n 0.;
    calls = Array.make n 0;
  }

let grow s =
  let cap = 2 * Array.length s.name in
  let ints a = Array.append a (Array.make (cap - Array.length a) 0) in
  let floats a =
    let b = Float.Array.make cap 0. in
    Float.Array.blit a 0 b 0 (Float.Array.length a);
    b
  in
  s.id <- ints s.id;
  s.name <- ints s.name;
  s.parent <- ints s.parent;
  s.op <- ints s.op;
  s.start <- floats s.start;
  s.stop <- floats s.stop

(* A span is stored when it closes, so a parent is stored after its
   children; ids are handed out when spans open. *)
let record t ~id ~name ~parent ~op ~start ~stop =
  let s = t.store in
  if s.len = Array.length s.name then grow s;
  let i = s.len in
  s.id.(i) <- id;
  s.name.(i) <- name;
  s.parent.(i) <- parent;
  s.op.(i) <- op;
  Float.Array.set s.start i start;
  Float.Array.set s.stop i stop;
  s.len <- i + 1

let open_frame t l =
  let id = t.next_id in
  t.next_id <- id + 1;
  let start = now () in
  if t.stack = [] then t.gap_s <- t.gap_s +. (start -. t.last_root_stop);
  t.stack <-
    {
      id;
      f_layer = l;
      f_start = start;
      f_words = Gc.minor_words ();
      child_s = 0.;
      child_words = 0.;
    }
    :: t.stack

let push t l =
  t.calls.(l) <- t.calls.(l) + 1;
  open_frame t l

let pop t =
  let stop = now () and words = Gc.minor_words () in
  match t.stack with
  | [] -> invalid_arg "Spans.pop: no open span"
  | f :: rest ->
    let dur = stop -. f.f_start and dw = words -. f.f_words in
    t.self_s.(f.f_layer) <- t.self_s.(f.f_layer) +. dur -. f.child_s;
    t.self_words.(f.f_layer) <- t.self_words.(f.f_layer) +. dw -. f.child_words;
    let parent =
      match rest with
      | [] ->
        t.last_root_stop <- stop;
        -1
      | p :: _ ->
        p.child_s <- p.child_s +. dur;
        p.child_words <- p.child_words +. dw;
        p.id
    in
    record t ~id:f.id ~name:f.f_layer ~parent ~op:t.cur_op ~start:f.f_start ~stop;
    t.stack <- rest

let span t l f =
  push t l;
  match f () with
  | v ->
    pop t;
    v
  | exception e ->
    pop t;
    raise e

(* An operation-level span: it lives across suspensions, so it is
   recorded for the trace file but charged to no layer's self time. *)
let async t l ~start ~op =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.calls.(l) <- t.calls.(l) + 1;
  record t ~id ~name:l ~parent:(-1) ~op ~start ~stop:(now ())

let set_op t op = t.cur_op <- op
let op t = t.cur_op

type saved = { layers_open : int list; saved_op : int }

(* Close the open spans above the innermost engine dispatch (there is
   none outside the measured phase) and remember them, outermost first. *)
let suspend t =
  let rec close acc =
    match t.stack with
    | f :: _ when f.f_layer <> engine ->
      pop t;
      close (f.f_layer :: acc)
    | _ -> acc
  in
  let layers_open = close [] in
  { layers_open; saved_op = t.cur_op }

let resume t s =
  t.cur_op <- s.saved_op;
  List.iter (open_frame t) s.layers_open

(* Host time between root spans, from [start_gaps] on: with no span
   open, no layer is charged. *)
let start_gaps t ~at =
  t.gap_s <- 0.;
  t.last_root_stop <- at

let gaps_s t ~until = t.gap_s +. (until -. t.last_root_stop)

let total_self_s t = Array.fold_left ( +. ) 0. t.self_s
let self_ms t l = t.self_s.(l) *. 1000.
let self_words t l = t.self_words.(l)
let calls t l = t.calls.(l)
let depth t = List.length t.stack
let count t = t.store.len

let write_csv t path =
  let oc = open_out path in
  output_string oc "id,name,start_s,end_s,parent,op\n";
  let s = t.store in
  for i = 0 to s.len - 1 do
    Printf.fprintf oc "%d,%s,%.9f,%.9f,%d,%d\n" s.id.(i)
      layers.(s.name.(i))
      (Float.Array.get s.start i) (Float.Array.get s.stop i) s.parent.(i)
      s.op.(i)
  done;
  close_out oc
