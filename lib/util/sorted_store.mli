(** Sorted multiset of integer keys — the per-peer local data store.

    Each BATON peer manages the data whose keys fall inside its range.
    Backed by {!Ordered_multiset} (an order-statistics AVL tree), so
    inserts, removals, rank queries and splits are all O(log n) and
    range extraction is O(log n + answer size): the tree walk skips
    every subtree outside the interval and allocates nothing but one
    cons cell per answer. Duplicate keys are allowed (the paper
    explicitly discusses duplicate partition keys). *)

type t

val create : unit -> t

val length : t -> int
(** Number of stored keys (with multiplicity). *)

val is_empty : t -> bool

val insert : t -> int -> unit
(** Insert a key, keeping order. O(log n). *)

val remove : t -> int -> bool
(** Remove one occurrence of the key; [false] if absent. *)

val mem : t -> int -> bool
(** O(log n) membership. *)

val count : t -> int -> int
(** Number of occurrences of a key. *)

val min_key : t -> int option
val max_key : t -> int option

val nth : t -> int -> int
(** 0-based rank (with multiplicity) in ascending order. O(log n).
    @raise Invalid_argument if out of range. *)

val keys_in : t -> lo:int -> hi:int -> int list
(** All keys in [\[lo, hi\]] (inclusive), in ascending order.
    O(log n + k) for k answers. *)

type view
(** An immutable snapshot of a store's contents. *)

val view : t -> view
(** The store's current contents, in O(1) and without copying: later
    inserts and removals on [t] do not show in the view. *)

val prepend_keys_in : view -> lo:int -> hi:int -> int list -> int list
(** [prepend_keys_in v ~lo ~hi acc] conses the view's keys in
    [\[lo, hi\]], ascending, onto the front of [acc]. Folding it over
    the views of several peers with disjoint ranges, rightmost first,
    builds their joint answer with one cons cell per key. *)

val count_in : t -> lo:int -> hi:int -> int
(** Number of keys in [\[lo, hi\]] without materialising them. *)

val split_lower_half : t -> t
(** Remove and return the lower half of the keys (floor(n/2) smallest).
    Used when a joining node takes the lower half of its parent's
    range. *)

val split_upper_half : t -> t
(** Remove and return the upper half (ceil(n/2)... the largest
    floor(n/2) keys). Symmetric to {!split_lower_half}. *)

val split_below : t -> int -> t
(** [split_below t k] removes and returns all keys strictly less than
    [k]. Used when a range boundary moves during load balancing. *)

val split_at_or_above : t -> int -> t
(** [split_at_or_above t k] removes and returns all keys >= [k]. *)

val absorb : t -> t -> unit
(** [absorb dst src] moves every key of [src] into [dst], emptying
    [src]. O(n + m). *)

val to_list : t -> int list
(** Ascending list of all keys. *)

val of_list : int list -> t
