(** Per-link latency model.

    The paper measures message counts only; this model converts hop
    traces into wall-clock-style operation latencies so experiments can
    also report latency distributions. Each ordered peer pair's latency
    comes from a heavy-tailed distribution (a base RTT plus exponential
    jitter) and is a pure function of (seed, src, dst): the same pair
    always costs the same, as on a real topology where peers have fixed
    network distance. Nothing is stored per pair, so a model serving
    any number of distinct pairs stays the same size. *)

type t

val create : ?seed:int -> ?base_ms:float -> ?jitter_ms:float -> unit -> t
(** [base_ms] (default 20.) is the minimum one-way latency; the jitter
    adds an exponential tail with the given mean (default 60.). *)

val of_pair : t -> src:int -> dst:int -> float
(** One-way latency in milliseconds for this ordered pair: the first
    draw of [Rng.float _ 1.0] from
    [Rng.create (seed + src * 1_000_003 + dst * 7919)], mapped through
    the jitter distribution, computed without building the generator.
    Deterministic: repeated calls return the same value. *)

val measure : t -> Bus.t -> (unit -> 'a) -> 'a * float
(** [measure t bus f] runs [f], capturing every message it sends on
    [bus] via the trace hook, and returns its result with the summed
    latency of the hop chain. Restores any previous trace hook
    afterwards.

    This is the {e serial hop sum}: it charges every transmitted
    message as if the operation were one sequential RPC chain. That is
    exact for exact-match search, insert, delete, join and leave,
    which really are sequential chains — but an upper bound for
    operations with independent branches, such as a range query's two
    directional sweeps, whose true end-to-end latency is the {e
    critical path} (longest dependency chain), not the sum. To measure
    critical paths, run the operation on the concurrent runtime
    ([Baton_runtime.Runtime], which suspends at each hop and overlaps
    independent work on the virtual clock, using this same model for
    per-hop delays); the message counts are identical either way —
    see DESIGN.md §3.7. *)
