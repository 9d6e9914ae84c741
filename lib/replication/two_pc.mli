(** Two-phase commit over independent replication groups (DESIGN.md §6j):
    the write-op payload of a prepare, the inter-shard frames, and their
    canonical wire codec.  The engine is the ZooKeeper layer's
    [Cross_shard] (its steps must ride the shard's own replicated log);
    this module is the shared, transport-level vocabulary. *)

type wop =
  | Wcreate of { path : string; data : string }
  | Wset of { path : string; data : string }
  | Wdelete of { path : string }

val wop_path : wop -> string
val wop_size : wop -> int

type frame =
  | Prepare of {
      txid : string;
      coord : int;
      participants : int list;
      ops : wop list;
    }
  | Prepare_ack of { txid : string; shard : int; ok : bool }
  | Commit of { txid : string }
  | Abort of { txid : string }
  | Status of { txid : string; from_shard : int }

val frame_size : frame -> int

(** Canonical binary codec: streaming writers and total readers
    (append-only tags; malformed bytes abort [Wire.Reader.run] with an
    [Error]). *)

val write_wop : Edc_wire.Wire.Writer.t -> wop -> unit
val read_wop : Edc_wire.Wire.Reader.t -> wop
val write_frame : Edc_wire.Wire.Writer.t -> frame -> unit
val read_frame : Edc_wire.Wire.Reader.t -> frame

val pp_wop : Format.formatter -> wop -> unit
val pp_frame : Format.formatter -> frame -> unit
