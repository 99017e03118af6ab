type t = { base_ms : float; jitter_ms : float; seed : int }

let create ?(seed = 7) ?(base_ms = 20.) ?(jitter_ms = 60.) () =
  if base_ms < 0. || jitter_ms < 0. then invalid_arg "Latency.create: negative latency";
  { base_ms; jitter_ms; seed }

(* The first draw of [Rng.float rng 1.0] from
   [Rng.create (seed + src * 1_000_003 + dst * 7919)], inlined: creating
   the generator discards one SplitMix64 output and the draw takes the
   next, so the state has advanced twice by the Weyl increment
   0x9E3779B97F4A7C15 (twice it, mod 2^64, is the constant below). The
   arithmetic stays in unboxed locals — nothing is allocated but the
   result. *)
let of_pair t ~src ~dst =
  let s = Int64.of_int (t.seed + (src * 1_000_003) + (dst * 7919)) in
  let z = Int64.add s 0x3C6EF372FE94F82AL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  let u = float_of_int (Int64.to_int (Int64.shift_right_logical z 11)) /. 9007199254740992.0 in
  t.base_ms -. (t.jitter_ms *. log (1. -. (u *. 0.999)))

let measure t bus f =
  let total = ref 0. in
  let unsubscribed = ref false in
  let sub =
    Bus.subscribe bus (fun ~src ~dst ~kind:_ ->
        total := !total +. of_pair t ~src ~dst)
  in
  let finish () =
    if not !unsubscribed then begin
      Bus.unsubscribe bus sub;
      unsubscribed := true
    end
  in
  match f () with
  | result ->
    finish ();
    (result, !total)
  | exception e ->
    finish ();
    raise e
