(** Immutable ordered multiset of integers with order statistics.

    An AVL tree of (key, multiplicity) nodes augmented with subtree
    cardinality, so rank queries and rank splits are O(log n). This is
    the engine behind {!Sorted_store} — fitting, given that the paper's
    overlay is itself "very similar in spirit to an AVL tree". *)

type t

val empty : t
val is_empty : t -> bool

val cardinal : t -> int
(** Total number of elements, counting multiplicity. *)

val add : int -> t -> t

val remove_one : int -> t -> t option
(** Remove one occurrence; [None] if the key is absent. *)

val mem : int -> t -> bool
val count : int -> t -> int

val min_elt : t -> int option
val max_elt : t -> int option

val nth : int -> t -> int
(** 0-based rank (with multiplicity) in ascending order. O(log n).
    @raise Invalid_argument if out of range. *)

val split_rank : int -> t -> t * t
(** [split_rank k t] is [(first k elements, the rest)]; [k] is clamped
    to [\[0, cardinal t\]]. *)

val split_key : int -> t -> t * t
(** [split_key k t] is [(elements < k, elements >= k)]. *)

val union : t -> t -> t
(** Multiset sum. O(m log n) for the smaller side m. *)

val elements : t -> int list
(** Ascending, with multiplicity. *)

val elements_in : lo:int -> hi:int -> t -> int list
(** Ascending elements in the closed interval, with multiplicity.
    O(log n + k) for k answers; allocates only the k cons cells. *)

val prepend_in : lo:int -> hi:int -> t -> int list -> int list
(** [prepend_in ~lo ~hi t acc] is [elements_in ~lo ~hi t @ acc] without
    the copy: the answers are consed straight onto [acc]. Lets a caller
    assemble one ascending list from several disjoint trees, visited
    right to left. *)

val count_in : lo:int -> hi:int -> t -> int
(** Cardinality of the closed interval without materialising it. *)

val check : t -> unit
(** Verify the AVL balance, ordering, positive multiplicities and size
    annotations. @raise Failure on violation (test helper). *)
