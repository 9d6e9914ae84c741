(** Paper-style text output: metric tables per figure plus the two static
    tables. *)

val section : string -> unit

(** Rows = client counts, columns = systems. *)
val metric_table :
  title:string ->
  unit:string ->
  clients:int list ->
  systems:Systems.kind list ->
  value:(Systems.kind -> int -> float) ->
  unit

(** Find a metric in a list of points ([nan] if absent). *)
val lookup :
  Experiment.point list ->
  Systems.kind ->
  int ->
  (Experiment.point -> float) ->
  float

(** Table 1 (static). *)
val table1 : unit -> unit

(** Table 2 (static; the mapping itself is exercised by the tests). *)
val table2 : unit -> unit

(** Run [point_fn] over the sweep with progress output. *)
val figure_points :
  title:string ->
  clients:int list ->
  systems:Systems.kind list ->
  point_fn:(Systems.kind -> int -> Experiment.point) ->
  Experiment.point list

val summarize_speedup :
  Experiment.point list ->
  clients:int ->
  base:Systems.kind ->
  ext:Systems.kind ->
  what:string ->
  unit

(** Availability under fault injection: one row per chaos run (success
    counts, success rate, drops, recovery times, invariant verdict). *)
val availability_table : Experiment.chaos_point list -> unit

(** Fault counts per run plus confirmed-vs-observed state recap. *)
val fault_summary : Experiment.chaos_point list -> unit

(** Snapshot/state-transfer activity per run (captures vs. forced
    serializations, chunk and resume counts); silent when no run saw any
    snapshot activity. *)
val snapshot_summary : Experiment.chaos_point list -> unit

(** Serializer-work table (frames encoded vs per-destination sends; their
    gap is the encode-once broadcast saving).  Skipped when no run
    recorded wire activity. *)
val wire_summary : Experiment.chaos_point list -> unit

(** Membership-change activity per chaos run (joins/leaves
    attempted/completed, joint vs final commits, aborts, fences, targeted
    leader kills, learner catch-up times); silent when no run
    reconfigured. *)
val reconfig_summary : Experiment.chaos_point list -> unit

(** One row per elastic-membership run: availability, final member set,
    steady vs trough throughput, recovery windows, bootstrap-resume proof
    and invariant verdict. *)
val membership_table : Experiment.membership_point list -> unit

(** Aggregate non-ok outcome counts across runs, most frequent first. *)
val error_taxonomy : Experiment.chaos_point list -> unit

(** Print every broken invariant (silent when all runs are intact). *)
val invariant_failures : Experiment.chaos_point list -> unit

(** The timestamped fault schedule of one run (deterministic per seed). *)
val fault_trace : Experiment.chaos_point -> unit
