(** Simulation tracing, gated by the [Logs] level.

    Every line is prefixed with the virtual timestamp so traces from a
    deterministic run can be diffed between revisions. *)

let src = Logs.Src.create "edc.sim" ~doc:"Discrete-event simulation trace"

module Log = (val Logs.src_log src : Logs.LOG)

(** [debugf sim fmt ...] logs at debug level with the virtual timestamp.
    The message is formatted in a horizontal box with an unbounded
    margin, so it stays on one line however long it grows: a break hint
    prints as a space. *)
let debugf sim fmt =
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf max_int;
  Format.pp_open_hbox ppf ();
  Format.kfprintf
    (fun ppf ->
      Format.pp_close_box ppf ();
      Format.pp_print_flush ppf ();
      let s = Buffer.contents buf in
      Log.debug (fun m -> m "[%a] %s" Sim_time.pp (Sim.now sim) s))
    ppf fmt

(** [setup_logging level] installs a [Fmt]-based reporter; call once from
    executables that want traces on stderr. *)
let setup_logging level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level
