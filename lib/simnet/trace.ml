(** Simulation tracing, gated by the [Logs] level.

    Every line is prefixed with the virtual timestamp so traces from a
    deterministic run can be diffed between revisions. *)

let src = Logs.Src.create "edc.sim" ~doc:"Discrete-event simulation trace"

module Log = (val Logs.src_log src : Logs.LOG)

(** [debugf sim fmt ...] logs at debug level with the virtual timestamp. *)
let debugf sim fmt =
  Format.kasprintf
    (fun s -> Log.debug (fun m -> m "[%a] %s" Sim_time.pp (Sim.now sim) s))
    fmt

(** [setup_logging level] installs a [Fmt]-based reporter; call once from
    executables that want traces on stderr. *)
let setup_logging level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level
