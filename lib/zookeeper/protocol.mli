(** Client-facing protocol: operations, results, watch events, and the
    client/server message types, with modelled wire sizes. *)

type op =
  | Create of { path : string; data : string; ephemeral : bool; sequential : bool }
  | Delete of { path : string; version : int option }
      (** [Some v]: conditional delete *)
  | Set_data of { path : string; data : string; expected_version : int option }
      (** [Some v] gives compare-and-swap semantics *)
  | Get_data of { path : string; watch : bool }
  | Get_children of { path : string; watch : bool }
  | Exists of { path : string; watch : bool }
  | Block of { path : string }
      (** server-side blocking read; only meaningful when an operation
          extension subscribes to it (EZK), otherwise rejected *)
  | Sync
  | Multi of { ops : Edc_replication.Two_pc.wop list }
      (** atomic multi-write; ops spanning shards commit via 2PC (§6j) *)

type result =
  | Created of string  (** actual path (sequential suffix resolved) *)
  | Deleted
  | Set of { version : int }
  | Data of string * Znode.stat
  | Children of string list
  | Stat_of of Znode.stat option
  | Unblocked of string  (** data of the awaited object *)
  | Ext of string  (** serialized extension-produced value (piggybacked) *)
  | Synced
  | Multi_ok  (** the atomic multi-write committed (on every shard) *)
  | Error of Zerror.t

type watch_kind = Node_created | Node_deleted | Node_changed | Children_changed

type client_to_server =
  | Connect
  | Reconnect of { session : int }
  | Request of { session : int; xid : int; op : op }
  | Ping of { session : int }
  | Close_session of { session : int }

type server_to_client =
  | Connect_ok of { session : int }
  | Reply of { xid : int; result : result }
  | Watch_event of { path : string; kind : watch_kind }
  | Expired

(** Modelled wire sizes. *)

val header_size : int
val op_size : op -> int
val stat_size : int
val result_size : result -> int
val client_msg_size : client_to_server -> int
val server_msg_size : server_to_client -> int

val pp_result : Format.formatter -> result -> unit
