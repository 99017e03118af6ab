(** Bench regression gate: compare two bench report documents.

    Feeds the CI gate (`baton_cli bench-diff OLD NEW --max-regress P`):
    the {e simulated} sections of the two documents — everything except
    the ["profile"] subtrees — must match {e exactly} (they are pure
    functions of the seed, so any drift is a behaviour change, not
    noise), while the wall-clock throughput inside ["profile"] is only
    required to stay within a tolerance of the old document's (it moves
    with the host machine).

    Input documents are parsed trees ({!Baton_obs.Json.parse}); both
    sides go through the same parser, so writer formatting quirks
    cancel and comparison is structural. *)

type verdict =
  | Pass of { details : string list }
      (** simulated sections identical; per-run throughput notes *)
  | Schema_mismatch of { old_schema : string; new_schema : string }
      (** the documents are different format versions (or a ["schema"]
          field is missing, reported as ["<missing>"]) — regenerate the
          baseline instead of comparing across formats *)
  | Simulated_mismatch of string list
      (** deterministic fields drifted; each entry is a [$.path: old
          vs new] description of one differing leaf (capped, with a
          trailing ["... and N more"] when clipped) *)
  | Throughput_regress of string list
      (** simulated sections identical but at least one run's
          [profile.events_per_s] fell below the allowed floor *)
  | Alloc_regress of string list
      (** simulated sections identical but at least one run allocates
          more than {!max_alloc_ratio} times the baseline's minor words
          per event ([profile.gc.minor_words / profile.events]) *)

val strip_profile : Baton_obs.Json.t -> Baton_obs.Json.t
(** Remove every ["profile"] field, recursively — the document minus
    its non-deterministic subtrees. *)

val diff_paths :
  ?limit:int -> Baton_obs.Json.t -> Baton_obs.Json.t -> string list * int
(** Leaf-level structural differences between two trees as
    [$.path: old vs new] lines (at most [limit], default 20), plus the
    total count found. [([], 0)] iff the trees are equal. *)

val max_alloc_ratio : float
(** 1.10: the ceiling on a run's minor words per event, relative to the
    baseline's. The count is exact ({!Baton_obs.Profile.gc_json}) and
    repeats to the word for a given binary and seed, so the bound only
    absorbs changes in the OCaml runtime, not noise. *)

val compare :
  max_regress_pct:float ->
  old_doc:Baton_obs.Json.t ->
  new_doc:Baton_obs.Json.t ->
  verdict
(** Gate [new_doc] against the baseline [old_doc]. Checks, in order:
    matching ["schema"] fields; byte-exact simulated sections (after
    {!strip_profile}); then, for each run pair where both sides carry a
    profile, minor words per event at most {!max_alloc_ratio} times the
    old run's, and
    [new events_per_s >= old * (1 - max_regress_pct / 100)]. An
    allocation regression is reported ahead of a throughput one.
    Runs are gathered from the v6 per-overlay sections (labeled
    ["overlay/mix"] in every detail line), falling back to a v5-style
    top-level run list (labeled by mix) so two pre-v6 baselines still
    compare. Runs without a profile on either side skip the throughput
    check (noted in [Pass.details]) — simulated equality was still
    enforced.
    @raise Invalid_argument if [max_regress_pct] is negative. *)

val exit_code : verdict -> int
(** [Pass] = 0, mismatches = 1, [Throughput_regress] = 2,
    [Alloc_regress] = 4 — so scripts can distinguish "the machine got
    slower" and "the program allocates more" from "the behaviour
    changed". *)

val render : verdict -> string
(** Multi-line human report, one line per detail. *)
