(** Simulator self-profiling: wall-clock and GC cost of the engine
    itself.

    Everything else in [lib/obs] observes the {e simulated} world —
    virtual clocks, message counts, causal traces. This module observes
    the {e simulator}: how many wall-clock milliseconds the process
    spends inside each hot region (engine event dispatch, bus delivery,
    search routing, route-cache probes, restructuring, repair), how many
    engine events it retires per wall second, and how much garbage it
    generates doing so. It is the baseline-and-regression instrument for
    the million-peer hot-path rewrite: before flattening the substrate
    we need to know where the wall time goes.

    A profiler is strictly one-way: probes read [Unix.gettimeofday] and
    [Gc.quick_stat] and write into private accumulators. No message is
    sent, no protocol PRNG is consulted, no simulated clock is touched —
    so a run with probes installed counts byte-identical simulated
    metrics to the same run without them (guard-tested). The numbers it
    produces are inherently {e non-deterministic} (they measure the host
    machine); exporters must keep them apart from seeded-comparison
    fields, which is why the bench report isolates them in a [profile]
    section excluded from same-seed byte comparisons.

    Region semantics: [enter]/[leave] time the {e outermost} activation
    of each subsystem (re-entrant activations nest without double
    counting). Under the concurrent runtime an operation-level region
    such as {!s_exact} suspends at every hop, so its wall time includes
    whatever other fibers executed while it was parked — treat
    {!s_dispatch}, which never suspends, as the ground-truth busy meter
    and the operation regions as inclusive attribution hints. *)

type t

val create : unit -> t
(** Start profiling now: snapshots the wall clock and [Gc.quick_stat]
    as the zero point. *)

(** {1 Canonical subsystem names}

    Probes may use any string; these are the names the driver wires up
    and the bench schema documents. *)

val s_dispatch : string
(** ["engine.dispatch"] — one engine event popped and executed. Its
    call count is the engine's event throughput numerator. *)

val s_delivery : string
(** ["bus.delivery"] — one message transiting {!Baton_sim.Bus.send}
    (metrics, subscribers, fault layers). *)

val s_exact : string
(** ["search.exact"] — one exact-routing walk (cache consult + tree
    walk), including range-locate steps. *)

val s_range : string
(** ["search.range"] — one range operation (locate + both sweeps). *)

val s_cache : string
(** ["cache.probe"] — one route-cache consult (lookup + validation
    probe). *)

val s_restructure : string
(** ["restructure"] — one forced join/leave restructuring operation. *)

val s_repair : string
(** ["repair"] — one failure-repair operation. *)

(** {1 Probes} *)

val enter : t -> string -> unit
(** Open an activation of the named region. Nested activations of the
    same region are counted as calls but only the outermost one
    accumulates wall time. *)

val leave : t -> string -> unit
(** Close the most recent activation of the named region.
    @raise Invalid_argument if the region has no open activation. *)

val wrap : t -> string -> (unit -> 'a) -> 'a
(** [wrap t name f] = [enter]; [f ()]; [leave] — exception-safe. *)

val stop : t -> unit
(** Freeze {!elapsed_ms}. Further probes still accumulate (harmless);
    idempotent — the first call wins. *)

(** {1 Readouts} *)

val calls : t -> string -> int
(** Activations of a region so far (0 if never entered). *)

val wall_ms : t -> string -> float
(** Cumulative outermost wall-clock milliseconds of a region. *)

val subsystems : t -> (string * int * float) list
(** All [(name, calls, wall_ms)] triples, sorted by name. *)

val elapsed_ms : t -> float
(** Wall milliseconds from [create] to [stop] (or to now if still
    running). *)

val events : t -> int
(** Shorthand for [calls t s_dispatch]: engine events retired. *)

val events_per_s : t -> float
(** Raw simulator throughput: {!events} over {!elapsed_ms}. [0.] until
    any time has passed. *)

val now_ms : unit -> float
(** The profiler's wall clock ([Unix.gettimeofday], in ms) — exposed so
    callers measuring adjacent phases agree with the profiler about
    what time it is. *)

val gc_json : t -> Json.t
(** GC pressure since [create]: minor/major/compaction counts and
    minor/promoted/major word deltas, plus the current top-heap size.
    The minor-word delta is exact ([Gc.minor_words]); the other counts
    come from [Gc.quick_stat]. *)

val json : t -> Json.t
(** The bench report's [profile] section: total wall ms, events,
    events/s, {!gc_json} and a per-subsystem [{calls; wall_ms}] map.
    Every field is wall-clock-derived and therefore non-deterministic —
    never include it in a same-seed byte comparison. *)

val table : t -> string
(** Human-readable per-subsystem table (calls, wall ms, share of
    elapsed), widest region first. *)
