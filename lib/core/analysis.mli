(** Trace analytics over the experiments: standard SLO rule sets,
    critical paths, flamegraph forests and baseline indicators, all
    derived from a telemetry dump ({!Rf_obs.Ingest.dump}) — whether
    just produced by a live run or replayed from a JSONL file.

    Thresholds are calibrated to the seed-42 defaults: warn sits above
    the observed value with headroom, fail marks a broken run, so the
    scorecard of an unmodified run is all-PASS and byte-identical
    across invocations — CI diffs it as the E7 fingerprint. *)

type experiment = E1b | E3 | E4 | E6 | E9 | E10 | E12

val all : experiment list
(** In E-number order. E9, E10 and E12 are excluded — [all] drives
    the pinned E7 scorecard fingerprint; ask for them explicitly. *)

val name : experiment -> string
(** ["e1b"] / ["e3"] / ["e4"] / ["e6"] / ["e9"] / ["e10"] / ["e12"] *)

val of_string : string -> experiment option

val of_dump : Rf_obs.Ingest.dump -> experiment option
(** The rule set for a dump, from the [experiment] value of its meta
    line; [None] when it is missing or unknown. *)

val describe : experiment -> string

val run_dump : ?seed:int -> experiment -> Rf_obs.Ingest.dump
(** Runs the experiment with its standard parameters (E1b pins the CI
    fingerprint parameters: 8-switch ring, 2 s boots) writing telemetry
    to a temp file, then ingests it — the exact pipeline a replayed
    file goes through. *)

val rules : experiment -> Rf_obs.Slo.rule list
(** The standard rule set; every set ends with a
    [<exp>.dropped_records] completeness guard. *)

val evaluate : experiment -> Rf_obs.Ingest.dump -> Rf_obs.Slo.result list

val indicators_of_results :
  Rf_obs.Slo.result list -> Rf_obs.Baseline.indicator list
(** One indicator per rule that produced a value: the rule's direction
    determines [i_lower_is_better]. *)

val baseline_run :
  label:string -> Rf_obs.Slo.result list -> Rf_obs.Baseline.run

val forest : Rf_obs.Ingest.dump -> Rf_obs.Critical_path.node list

val configure_path :
  Rf_obs.Ingest.dump -> Rf_obs.Critical_path.step list option
(** Critical path of the longest [sw.configure] span, [None] when the
    dump has none. *)

val scorecard : Format.formatter -> Rf_obs.Slo.result list -> unit
