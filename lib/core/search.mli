(** Exact-match and range queries (paper Section IV-A/B).

    Both run the paper's [search exact] algorithm: a node first checks
    its own range; otherwise it forwards to the farthest routing-table
    neighbour whose cached lower bound does not pass the target, else
    to its child, else to its adjacent node on the target's side. Every
    forwarding hop is one counted message. Routing uses only the
    issuing node's local links and cached ranges — caches can be stale,
    in which case the query simply pays extra hops (or routes around an
    unreachable peer), exactly the effect measured by the paper's
    network-dynamics experiment.

    When the network's adaptive route cache is enabled
    ({!Net.enable_route_cache}), both queries first consult the issuing
    peer's {!Route_cache} for a learned shortcut: a single probe
    message (auxiliary kind {!Msg.cache_probe}, counted apart from the
    paper's metric) is validated at the receiver against its current
    range. A stale or dead shortcut is evicted and the query falls back
    to ordinary tree routing — the cache accelerates, never decides.

    Under an installed fault model (see {!Baton_sim.Bus.set_faults}) a
    hop can also time out after its retransmissions. The search then
    routes around the silent peer through alternative links — other
    sideways entries, the child or adjacent node on the target's side,
    the parent — degrading to extra hops rather than raising, and files
    a suspicion against the silent peer so repair can be triggered
    lazily ({!Failure.observe_timeout}). *)

type result = {
  node : Node.t;
      (** the node that answered: the owner of the searched value, or
          the first intersecting node of a range query *)
  found : bool;
      (** exact/lookup: is the answer positive (range owned / key
          stored)? range: did any key match? *)
  keys : int list;
      (** matching keys, ascending ([[v]] or [[]] for lookup; always
          [[]] for [exact], which locates an owner rather than data) *)
  hops : int;  (** forwarding messages on the query's routing path *)
  msgs : int;
      (** every bus message the operation paid for: routing hops,
          retransmissions, repair detours, and auxiliary cache probes *)
  retries : int;  (** retransmissions hidden inside [msgs] *)
  nodes_visited : int;  (** partial-answer nodes contacted *)
  complete : bool;
      (** [false] when part of the queried data could not be reached:
          a dead or silent peer had to be skipped mid-sweep, the
          adjacency chain was severed, or an exact search could not
          reach the owner of the searched value. Equivalent to
          [holes = \[\]]. *)
  holes : (int * int) list;
      (** the unreachable sub-intervals behind [complete = false]:
          half-open [\[a, b)] ranges, ascending, overlap-merged and
          clipped to the query — so callers (and the consistency
          oracle) can tell "hole at [\[a, b)]" from "truncated". Empty
          iff [complete]. For an incomplete exact search this is the
          searched point [\[(v, v + 1)\]]. *)
  cached : bool;
      (** did a validated route-cache shortcut serve the routing step? *)
}
(** The one result shape shared by {!exact}, {!lookup} and {!range}. *)

exception Routing_stuck of int
(** Raised when a query exceeds the hop budget — only possible when
    staleness or failures have corrupted routing state beyond the
    protocol's tolerance; never in a quiescent network. Carries the
    hop count. *)

type next_hop =
  | Hop of Link.info  (** forward to this link's peer *)
  | Exhausted
      (** forward links exist but every one, and the parent, was tried *)
  | Boundary
      (** no forward link at all: the boundary node that would expand
          for an out-of-range value (Section IV-C) *)

val next_hop : Node.t -> int -> tried:int list -> next_hop
(** [next_hop node v ~tried] is the routing step from [node] towards
    [v]: the farthest admissible sideways entry, then the nearer ones,
    then the child and the adjacent node on [v]'s side, skipping the
    peers in [tried] (those that timed out from [node] on this visit);
    the parent is the escape hop once every forward link was tried.
    [node] must not own [v]. Reads the links in place and allocates
    only its answer. *)

val exact : ?kind:string -> Net.t -> from:Node.t -> int -> result
(** [exact net ~from v] routes from [from] to the node whose range
    contains [v]. For values outside the current global range the
    leftmost/rightmost node is returned (it is the one that would
    expand, per Section IV-C) with [found = false]. The answer is
    [complete] iff the answering node owns [v]; a walk stranded by
    severed links reports [complete = false] with hole [(v, v + 1)],
    so "absent" is never conflated with "owner unreachable". [kind]
    defaults to {!Msg.search_exact}. *)

val lookup : Net.t -> from:Node.t -> int -> result
(** [lookup net ~from v] routes to the responsible node and tests
    membership of [v] in its local store: [found] is the membership
    answer and [keys] is [[v]] when stored. *)

type sweep_outcome
(** Result of one directional adjacent-link sweep. Opaque: callers of
    {!range} only thread it through a {!par} runner. *)

type par = (unit -> sweep_outcome) -> (unit -> sweep_outcome) -> sweep_outcome * sweep_outcome
(** How to run the two independent directional sweeps of a range query.
    The default runs them sequentially (left, then right); the
    concurrent runtime passes its fork-join so both directions cover
    their subranges in parallel — same messages, shorter critical
    path. *)

val range : ?par:par -> Net.t -> from:Node.t -> lo:int -> hi:int -> result
(** [range net ~from ~lo ~hi] answers the closed range query
    [\[lo, hi\]]: exact-search the first intersecting node, then follow
    adjacent links, one message per additional node (paper:
    [O(log N + X)]). A mid-scan dead or timed-out adjacent peer no
    longer aborts the query: the scan bridges the gap through the
    surviving neighbourhood and returns what it collected, reporting
    each skipped sub-interval in [holes] (and [complete = false]) when
    skipped data intersected the interval.

    [par] (default: sequential) runs the left and right sweeps; both
    orders transmit the identical message multiset, so [Metrics.total]
    does not depend on it. The paper's [O(log N + X)] range bound is a
    critical-path bound, reached only when the sweeps overlap in
    time. *)
