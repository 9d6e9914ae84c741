(** Binary codec for the deployment's complete wire type ({!Server.wire}):
    client protocol, replication traffic, and inter-server forwards in one
    self-describing frame, so a whole ZooKeeper ensemble can run over the
    real-socket transport ([Edc_wire.Tcp_transport]) with replica code
    unchanged.  {!write}/{!read} are the only codec; the golden table in
    test/test_wire.ml pins the bytes of every tag.

    Tag registry (append-only): 0 Client_msg, 1 Server_msg, 2 Zab_msg,
    3 Forward, 4 Forward_connect, 5 Forward_reconnect, 6 Forward_close,
    7 Touch. *)

open Edc_replication
open Edc_wire

module W = Wire.Writer
module R = Wire.Reader

let write w (m : Server.wire) =
  W.begin_list w;
  (match m with
  | Server.Client_msg c ->
      W.int w 0;
      Wire_format.write_client_msg w c
  | Server.Server_msg s ->
      W.int w 1;
      Wire_format.write_server_msg w s
  | Server.Zab_msg z ->
      W.int w 2;
      Zab_wire.write ~payload:Wire_format.write_txn w z
  | Server.Forward { origin; session; xid; op } ->
      W.int w 3;
      W.int w origin;
      W.int w session;
      W.int w xid;
      Wire_format.write_op w op
  | Server.Forward_connect { origin; client_addr } ->
      W.int w 4;
      W.int w origin;
      W.int w client_addr
  | Server.Forward_reconnect { origin; session } ->
      W.int w 5;
      W.int w origin;
      W.int w session
  | Server.Forward_close { session } ->
      W.int w 6;
      W.int w session
  | Server.Touch { session } ->
      W.int w 7;
      W.int w session);
  W.end_list w

let read r =
  R.begin_list r;
  let m =
    match R.int r with
    | 0 ->
        let c = Wire_format.read_client_msg r in
        Server.Client_msg c
    | 1 ->
        let s = Wire_format.read_server_msg r in
        Server.Server_msg s
    | 2 ->
        let z = Zab_wire.read ~payload:Wire_format.read_txn r in
        Server.Zab_msg z
    | 3 ->
        let origin = R.int r in
        let session = R.int r in
        let xid = R.int r in
        let op = Wire_format.read_op r in
        Server.Forward { origin; session; xid; op }
    | 4 ->
        let origin = R.int r in
        let client_addr = R.int r in
        Server.Forward_connect { origin; client_addr }
    | 5 ->
        let origin = R.int r in
        let session = R.int r in
        Server.Forward_reconnect { origin; session }
    | 6 ->
        let session = R.int r in
        Server.Forward_close { session }
    | 7 ->
        let session = R.int r in
        Server.Touch { session }
    | t -> R.error r (Printf.sprintf "bad deployment wire tag %d" t)
  in
  R.end_list r;
  m

(** String codecs for the TCP transport's [~encode]/[~decode]. *)

let encode m = W.encode write m
let decode s = R.run s read
let decode_sub s ~pos ~len = R.run_sub s ~pos ~len read
