(** Client-facing protocol: operations, results, watch events, and the
    client/server message types, with modelled wire sizes. *)

type op =
  | Create of { path : string; data : string; ephemeral : bool; sequential : bool }
  | Delete of { path : string; version : int option }
      (** [version = Some v]: conditional delete *)
  | Set_data of { path : string; data : string; expected_version : int option }
      (** [expected_version = Some v] gives compare-and-swap semantics *)
  | Get_data of { path : string; watch : bool }
  | Get_children of { path : string; watch : bool }
  | Exists of { path : string; watch : bool }
  | Block of { path : string }
      (** server-side blocking read; only meaningful when an operation
          extension subscribes to it (EZK), otherwise rejected *)
  | Sync
  | Multi of { ops : Edc_replication.Two_pc.wop list }
      (** atomic multi-write.  All ops within the receiving shard commit
          as one transaction; ops spanning shards commit through 2PC
          (§6j).  On an unsharded deployment every op is local. *)

type result =
  | Created of string  (** actual path (sequential suffix resolved) *)
  | Deleted
  | Set of { version : int }
  | Data of string * Znode.stat
  | Children of string list
  | Stat_of of Znode.stat option  (** exists *)
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

(* ------------------------------------------------------------------ *)
(* Modelled wire sizes                                                 *)
(* ------------------------------------------------------------------ *)

let header_size = 16

let op_size = function
  | Create { path; data; _ } -> header_size + String.length path + String.length data + 2
  | Delete { path; _ } -> header_size + String.length path + 4
  | Set_data { path; data; _ } ->
      header_size + String.length path + String.length data + 4
  | Get_data { path; _ } -> header_size + String.length path + 1
  | Get_children { path; _ } -> header_size + String.length path + 1
  | Exists { path; _ } -> header_size + String.length path + 1
  | Block { path } -> header_size + String.length path
  | Sync -> header_size
  | Multi { ops } ->
      List.fold_left
        (fun acc o -> acc + Edc_replication.Two_pc.wop_size o)
        header_size ops

let stat_size = 32

let result_size = function
  | Created path -> header_size + String.length path
  | Deleted | Synced | Multi_ok -> header_size
  | Set _ -> header_size + 4
  | Data (d, _) -> header_size + String.length d + stat_size
  | Children names ->
      List.fold_left (fun acc n -> acc + String.length n + 4) header_size names
  | Stat_of _ -> header_size + stat_size
  | Unblocked d -> header_size + String.length d
  | Ext s -> header_size + String.length s
  | Error _ -> header_size + 4

let client_msg_size = function
  | Connect -> header_size
  | Reconnect _ -> header_size + 8
  | Request { op; _ } -> 8 + op_size op
  | Ping _ -> header_size
  | Close_session _ -> header_size

let server_msg_size = function
  | Connect_ok _ -> header_size + 8
  | Reply { result; _ } -> 8 + result_size result
  | Watch_event { path; _ } -> header_size + String.length path + 1
  | Expired -> header_size

let pp_result ppf = function
  | Created p -> Fmt.pf ppf "created %s" p
  | Deleted -> Fmt.string ppf "deleted"
  | Set { version } -> Fmt.pf ppf "set v%d" version
  | Data (d, s) -> Fmt.pf ppf "data %S %a" d Znode.pp_stat s
  | Children c -> Fmt.pf ppf "children [%a]" Fmt.(list ~sep:semi string) c
  | Stat_of s -> Fmt.pf ppf "stat %a" Fmt.(option ~none:(any "none") Znode.pp_stat) s
  | Unblocked d -> Fmt.pf ppf "unblocked %S" d
  | Ext s -> Fmt.pf ppf "ext %S" s
  | Synced -> Fmt.string ppf "synced"
  | Multi_ok -> Fmt.string ppf "multi ok"
  | Error e -> Fmt.pf ppf "error %a" Zerror.pp e
