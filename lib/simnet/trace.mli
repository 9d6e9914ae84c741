(** Simulation tracing, gated by the [Logs] level; every line carries the
    virtual timestamp so traces of a deterministic run diff cleanly. *)

val src : Logs.src

val debugf : Sim.t -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** Install a [Fmt] reporter (call once from executables). *)
val setup_logging : Logs.level option -> unit
