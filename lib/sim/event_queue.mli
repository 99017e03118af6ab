(** Priority queue of timestamped events.

    An implicit 4-ary min-heap over parallel arrays, ordered by
    (time, insertion sequence): events scheduled for the same instant
    are delivered in FIFO order, which keeps simulations
    deterministic. Since the sequence number makes the ordering key
    total, the heap arity is unobservable — any min-heap pops the
    same schedule. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit
(** Schedule an event. O(log n). *)

val min_time : 'a t -> float
(** Time of the earliest event, which {!pop_min} removes next.
    @raise Invalid_argument if the queue is empty. *)

val pop_min : 'a t -> 'a
(** Remove the earliest event and return its payload; read its time
    first with {!min_time}. Ties are broken by insertion order.
    O(log n), and allocates nothing.
    @raise Invalid_argument if the queue is empty. *)

val clear : 'a t -> unit
