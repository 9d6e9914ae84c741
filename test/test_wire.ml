(* The untrusted-bytes surface: fuzz corpus over the binary frame parser
   (round-trips, truncation at every byte offset, random garbage, crafted
   depth/length bombs — the decoder must never raise), round-trips for
   every message and snapshot codec built on it, the golden-bytes table
   that pins each shape's byte format, the canonicality property every
   shape reader must satisfy, the corrupt-snapshot regression (truncated
   and bit-flipped blobs yield a clean [Error] and leave the replica
   untouched; a rejecting follower re-requests instead of dying), and the
   first wall-clock end-to-end run: a 3-replica Zab cluster serving the
   counter workload over real loopback TCP. *)

open Edc_simnet
open Edc_wire
module Zk = Edc_zookeeper
module Txn = Zk.Txn
module P = Zk.Protocol
module Zab = Edc_replication.Zab
module Zab_wire = Edc_replication.Zab_wire
module Pbft = Edc_replication.Pbft
module Pbft_wire = Edc_replication.Pbft_wire
module Two_pc = Edc_replication.Two_pc

let qc = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Frame codec: fuzz corpus                                            *)
(* ------------------------------------------------------------------ *)

(* Trees over every frame form the readers' fast paths take: ints of
   every varint length (1 to 9 bytes), strings and lists whose length
   header is 2 bytes (payload 128..16383) and, rarely, a list whose
   header is 3 bytes (a payload of 16 KiB or more). *)
let wire_arb =
  let open QCheck.Gen in
  let any_string len = string_size ~gen:(char_range '\000' '\255') len in
  (* a random word shifted down to a random width, sign kept: every
     varint length is about as likely *)
  let any_width_int = map2 (fun bits x -> x asr (62 - bits)) (int_range 0 62) int in
  let leaf =
    frequency
      [
        (1, map (fun i -> Wire.Int i) int);
        (* small ints exercise the 1-byte varint paths *)
        (1, map (fun i -> Wire.Int i) (int_range (-300) 300));
        (1, map (fun i -> Wire.Int i) any_width_int);
        (2, map (fun s -> Wire.Str s) (any_string (int_range 0 16)));
        (1, map (fun s -> Wire.Str s) (any_string (int_range 100 300)));
      ]
  in
  let rec gen depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (6, leaf);
          (2, map (fun l -> Wire.List l) (list_size (int_range 0 5) (gen (depth - 1))));
          (* 2-byte header, from a few children up *)
          (1, map (fun l -> Wire.List l) (list_size (int_range 6 24) leaf));
        ]
  in
  let wide_list =
    map
      (fun l -> Wire.List l)
      (list_size (int_range 56 64) (map (fun s -> Wire.Str s) (any_string (int_range 290 300))))
  in
  QCheck.make (frequency [ (40, gen 4); (1, wide_list) ])

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire encode/decode roundtrip" ~count:500 wire_arb
    (fun v -> Wire.decode (Wire.encode v) = Ok v)

let prop_wire_size =
  QCheck.Test.make ~name:"wire size matches encoded length" ~count:500
    wire_arb (fun v -> Wire.size v = String.length (Wire.encode v))

(* truncation at EVERY byte offset must be a clean [Error] *)
let prop_wire_truncation =
  QCheck.Test.make ~name:"wire decode of every truncation errors" ~count:200
    wire_arb (fun v ->
      let s = Wire.encode v in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        match Wire.decode (String.sub s 0 k) with
        | Error _ -> ()
        | Ok _ -> ok := false
      done;
      !ok)

let prop_wire_garbage =
  QCheck.Test.make ~name:"wire decode never raises on garbage" ~count:1000
    QCheck.(string_gen QCheck.Gen.(char_range '\000' '\255'))
    (fun s -> match Wire.decode s with Ok _ | Error _ -> true)

(* flipping any single byte of a valid frame must not raise (it may still
   decode: a flip inside a [Str] payload is a different, valid frame) *)
let prop_wire_bitflip =
  QCheck.Test.make ~name:"wire decode never raises on bit flips" ~count:200
    wire_arb (fun v ->
      let s = Wire.encode v in
      let ok = ref true in
      String.iteri
        (fun i c ->
          let b = Bytes.of_string s in
          Bytes.set b i (Char.chr (Char.code c lxor 0x40));
          match Wire.decode (Bytes.to_string b) with
          | Ok _ | Error _ -> ()
          | exception _ -> ok := false)
        s;
      !ok)

(* manual varint for crafting malformed frames *)
let craft_varint n =
  let buf = Buffer.create 4 in
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n;
  Buffer.contents buf

let check_rejected name s =
  match Wire.decode s with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "%s decoded to %s" name (Format.asprintf "%a" Wire.pp v)

let test_wire_crafted_bombs () =
  (* depth bomb: a list nested past [max_depth] *)
  let deep = ref (Wire.encode (Wire.Int 0)) in
  for _ = 1 to Wire.max_depth + 4 do
    deep := "\x03" ^ craft_varint (String.length !deep) ^ !deep
  done;
  check_rejected "depth bomb" !deep;
  (* length bomb: a tiny input declaring a gigantic payload must be
     rejected up front, not drive an allocation *)
  check_rejected "length bomb (str)" ("\x02" ^ craft_varint 0x40_0000_0000 ^ "ab");
  check_rejected "length bomb (list)" ("\x03" ^ craft_varint max_int);
  (* a child frame declaring more bytes than its parent holds *)
  check_rejected "child overruns parent"
    ("\x03" ^ craft_varint 5 ^ "\x02" ^ craft_varint 200 ^ "abc");
  (* non-minimal varints: same value, longer spelling — not canonical *)
  check_rejected "non-minimal length varint" ("\x02\x81\x00" ^ "a");
  check_rejected "non-minimal int payload" "\x01\x02\x80\x00";
  (* varint longer than 9 bytes *)
  check_rejected "varint too long"
    ("\x02" ^ String.make 9 '\x80' ^ "\x01");
  check_rejected "unknown tag" "\x07\x01a";
  check_rejected "trailing bytes" (Wire.encode (Wire.Int 3) ^ "x");
  check_rejected "int payload length mismatch" "\x01\x03\x02\x02\x02";
  check_rejected "empty input" ""

let test_wire_encode_rejects_overdeep () =
  (* the leaf counts as one level, so [max_depth - 1] wrappers is the
     deepest encodable tree *)
  let rec nest d v = if d = 0 then v else nest (d - 1) (Wire.List [ v ]) in
  (match Wire.encode (nest (Wire.max_depth - 1) (Wire.Int 1)) with
  | _ -> ()
  | exception Invalid_argument _ -> Alcotest.fail "max_depth itself must encode");
  match Wire.encode (nest Wire.max_depth (Wire.Int 1)) with
  | _ -> Alcotest.fail "over-deep tree must not encode"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Message codecs: round-trip every variant                            *)
(* ------------------------------------------------------------------ *)

let zxid : Zab.zxid = { epoch = 3; counter = 41 }

let zab_samples : string Zab.msg list =
  [
    Ping { epoch = 1; committed = 7; sent = Sim_time.ms 350 };
    Ping { epoch = 2; committed = 0; sent = Sim_time.zero };
    Propose
      {
        epoch = 2;
        index = 5;
        prev_zxid = zxid;
        entries =
          [
            { zxid; payload = App "a" };
            { zxid = { epoch = 3; counter = 42 }; payload = App "" };
          ];
      };
    (* config-change entries travel inside the ordinary Propose frames *)
    Propose
      {
        epoch = 2;
        index = 7;
        prev_zxid = zxid;
        entries =
          [
            {
              zxid = { epoch = 3; counter = 43 };
              payload = Config (Cc_joint { c_old = [ 0; 1; 2 ]; c_new = [ 0; 1; 2; 3 ] });
            };
            {
              zxid = { epoch = 3; counter = 44 };
              payload = Config (Cc_final { members = [ 0; 1; 2; 3 ] });
            };
          ];
      };
    Ack { epoch = 2; upto = 6 };
    Commit { epoch = 2; index = 6 };
    Request_vote { epoch = 4; candidate = 1; last_zxid = zxid };
    Vote { epoch = 4 };
    Sync_request { epoch = 4; have = 3 };
    Sync
      { epoch = 4; from = 4; entries = [ { zxid; payload = App "p" } ]; committed = 5 };
    Sync
      {
        epoch = 4;
        from = 4;
        entries =
          [ { zxid; payload = Config (Cc_joint { c_old = [ 0 ]; c_new = [] }) } ];
        committed = 5;
      };
    Snapshot_begin
      {
        epoch = 4;
        base = 100;
        total = 1536;
        chunk_size = 512;
        digest = "d";
        committed = 99;
        config = Stable [ 0; 1; 2 ];
      };
    Snapshot_begin
      {
        epoch = 5;
        base = 100;
        total = 1536;
        chunk_size = 512;
        digest = "d";
        committed = 99;
        config = Joint { c_old = [ 0; 1; 2 ]; c_new = [ 1; 2; 3 ] };
      };
    Snapshot_chunk { epoch = 4; base = 100; seq = 1; data = String.make 64 '\x00' };
    Snapshot_ack { epoch = 4; base = 100; received = 2 };
    (* learner handshake + fencing (tags 11/12) *)
    Join_request { epoch = 0; id = 4 };
    Join_request { epoch = 6; id = 3 };
    Fence { epoch = 6 };
    (* lease grants + observer handshake (tags 13/14) *)
    Lease_grant { epoch = 6; sent = Sim_time.ms 1234 };
    Lease_grant { epoch = 1; sent = Sim_time.zero };
    (* a skewed clock can legitimately read negative early in a run *)
    Lease_grant { epoch = 2; sent = Sim_time.ns (-5_000_000) };
    Observer_request { epoch = 0; id = 5 };
    Observer_request { epoch = 9; id = 3 };
  ]

let encode_zab (m : string Zab.msg) =
  Wire.Writer.with_writer (fun w -> Zab_wire.write ~payload:Wire.Writer.str w m)

let decode_zab s = Wire.Reader.run s (Zab_wire.read ~payload:Wire.Reader.str)

let test_zab_msg_roundtrip () =
  List.iter
    (fun m ->
      match decode_zab (encode_zab m) with
      | Ok m' -> Alcotest.(check bool) "zab msg" true (m = m')
      | Error e -> Alcotest.failf "zab msg decode: %s" e)
    zab_samples

(* fuzz the read-path frames (tags 0/13/14): round-trip for arbitrary
   field values, truncation at every byte offset is a clean [Error], and
   garbage/mutated frames never raise out of the zab decoder *)
let lease_frame_arb =
  let open QCheck.Gen in
  let gen =
    let* tag = int_range 0 2 in
    let* epoch = int_range 0 1_000_000 in
    let* a = int in
    match tag with
    | 0 ->
        let* committed = int_range 0 1_000_000 in
        return (Zab.Ping { epoch; committed; sent = Sim_time.ns a })
    | 1 -> return (Zab.Lease_grant { epoch; sent = Sim_time.ns a })
    | _ -> return (Zab.Observer_request { epoch; id = a land 0xff })
  in
  QCheck.make gen

let prop_lease_frames_roundtrip =
  QCheck.Test.make ~name:"lease/observer frames roundtrip" ~count:500
    lease_frame_arb (fun m -> decode_zab (encode_zab m) = Ok m)

let prop_lease_frames_truncation =
  QCheck.Test.make ~name:"lease/observer frame truncations all error"
    ~count:200 lease_frame_arb (fun m ->
      let s = encode_zab m in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        match decode_zab (String.sub s 0 k) with
        | Error _ -> ()
        | Ok _ -> ok := false
      done;
      !ok)

let prop_zab_decoder_garbage =
  QCheck.Test.make ~name:"zab decoder never raises on garbage frames"
    ~count:500 wire_arb (fun w ->
      match decode_zab (Wire.encode w) with Ok _ | Error _ -> true)

let test_lease_frames_malformed () =
  (* wrong arity / wrong field kinds on the new tags must come back as the
     standard decode error, same convention as the PR 6/7 frames *)
  List.iter
    (fun (name, w) ->
      match decode_zab (Wire.encode w) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s decoded" name)
    [
      (* three-field Ping: the pre-lease shape no longer parses *)
      ("ping missing sent", Wire.List [ Wire.Int 0; Wire.Int 1; Wire.Int 7 ]);
      ("lease grant missing sent", Wire.List [ Wire.Int 13; Wire.Int 1 ]);
      ( "lease grant trailing field",
        Wire.List [ Wire.Int 13; Wire.Int 1; Wire.Int 2; Wire.Int 3 ] );
      ("lease grant str sent", Wire.List [ Wire.Int 13; Wire.Int 1; Wire.Str "t" ]);
      ("observer request bare", Wire.List [ Wire.Int 14; Wire.Int 1 ]);
      ( "observer request nested id",
        Wire.List [ Wire.Int 14; Wire.Int 1; Wire.List [] ] );
      ("unknown tag 15", Wire.List [ Wire.Int 15; Wire.Int 1 ]);
    ]

let pbft_samples : string Pbft.msg list =
  let rid : Pbft.request_id = { client = 9; rseq = 2 } in
  [
    Pre_prepare { view = 0; seq = 3; batch = [ (rid, "op") ]; ts = Sim_time.ms 5 };
    Prepare { view = 0; seq = 3 };
    Commit { view = 0; seq = 3 };
    View_change { new_view = 1; delivered = [ (rid, "a") ]; pending = [] };
    New_view { view = 1 };
    Recover_request;
    Recover_reply { view = 1 };
  ]

let test_pbft_msg_roundtrip () =
  List.iter
    (fun m ->
      let s =
        Wire.Writer.with_writer (fun w ->
            Pbft_wire.write ~payload:Wire.Writer.str w m)
      in
      match Wire.Reader.run s (Pbft_wire.read ~payload:Wire.Reader.str) with
      | Ok m' -> Alcotest.(check bool) "pbft msg" true (m = m')
      | Error e -> Alcotest.failf "pbft msg decode: %s" e)
    pbft_samples

let stat : Edc_zookeeper.Znode.stat =
  { version = 2; czxid = 17; ephemeral_owner = Some 5; num_children = 1; data_length = 3 }

let op_samples : P.op list =
  [
    Create { path = "/a"; data = "d"; ephemeral = true; sequential = false };
    Delete { path = "/a"; version = Some 2 };
    Delete { path = "/a"; version = None };
    Set_data { path = "/a"; data = ""; expected_version = None };
    Get_data { path = "/a"; watch = true };
    Get_children { path = "/"; watch = false };
    Exists { path = "/x"; watch = true };
    Block { path = "/b" };
    Sync;
  ]

let result_samples : P.result list =
  [
    Created "/a0000000001";
    Deleted;
    Set { version = 4 };
    Data ("bytes\x00\xff", stat);
    Children [ "a"; "b" ];
    Stat_of (Some stat);
    Stat_of None;
    Unblocked "v";
    Ext "serialized";
    Synced;
    Error Zk.Zerror.No_node;
    Error (Zk.Zerror.Extension_error "boom");
  ]

let txn_samples : Txn.t list =
  [
    {
      origin = Some 1;
      session = 42;
      xid = 7;
      ops =
        [
          Tcreate { path = "/a"; data = "d"; ephemeral_owner = Some 42 };
          Tdelete { path = "/b" };
          Tset { path = "/a"; data = "x"; version = 3 };
          Tsession_open { session = 42; client_addr = 1000; owner_replica = 1 };
          Tsession_close { session = 41 };
          Tsession_move { session = 42; owner_replica = 2 };
          Tblock { session = 42; origin = 1; xid = 7; path = "/gate" };
          Tnotify { session = 42; path = "/gate"; kind = P.Node_created };
          Terror;
        ];
      result = P.Created "/a";
      quiet = false;
    };
    Txn.internal ~quiet:true [ Tdelete { path = "/tmp" } ];
  ]

let server_wire_samples : Zk.Server.wire list =
  [
    Client_msg Connect;
    Client_msg (Reconnect { session = 9 });
    Client_msg (Request { session = 9; xid = 1; op = List.hd op_samples });
    Client_msg (Ping { session = 9 });
    Client_msg (Close_session { session = 9 });
    Server_msg (Connect_ok { session = 9 });
    Server_msg (Reply { xid = 1; result = P.Deleted });
    Server_msg (Watch_event { path = "/w"; kind = P.Children_changed });
    Server_msg Expired;
    Zab_msg (Ping { epoch = 1; committed = 0; sent = Sim_time.ms 50 });
    Forward { origin = 2; session = 9; xid = 3; op = P.Sync };
    Forward_connect { origin = 2; client_addr = 1001 };
    Forward_reconnect { origin = 0; session = 9 };
    Forward_close { session = 9 };
    Touch { session = 9 };
    (* the deployment's payload codec nested inside a Zab frame *)
    Zab_msg
      (Propose
         {
           epoch = 2;
           index = 5;
           prev_zxid = zxid;
           entries = [ { zxid; payload = App (List.hd txn_samples) } ];
         });
  ]

(* ------------------------------------------------------------------ *)
(* Every message shape, with one sample per case tag of its registry   *)
(* ------------------------------------------------------------------ *)

module W = Wire.Writer
module R = Wire.Reader
module WF = Zk.Wire_format

let encode_with write v = W.with_writer (fun w -> write w v)

type shape =
  | Shape : {
      name : string;
      write : W.t -> 'a -> unit;
      read : R.t -> 'a;
      samples : 'a list;
    }
      -> shape

let zerror_samples : Zk.Zerror.t list =
  [
    No_node; Node_exists; Bad_version; Not_empty; No_children_for_ephemerals;
    Invalid_path; Session_expired; Not_leader; Unsupported; Timeout;
    Maybe_applied; Extension_error "boom"; Locked; Txn_conflict;
  ]

let watch_kind_samples =
  [ P.Node_created; P.Node_deleted; P.Node_changed; P.Children_changed ]

let wop_samples =
  [
    Two_pc.Wcreate { path = "/s0/a"; data = "\x00d" };
    Two_pc.Wset { path = "/s1/b"; data = "" };
    Two_pc.Wdelete { path = "/s1/c" };
  ]

let frame_samples =
  [
    Two_pc.Prepare
      { txid = "s0.e1.7"; coord = 0; participants = [ 0; 1 ]; ops = wop_samples };
    Two_pc.Prepare_ack { txid = "s0.e1.7"; shard = 1; ok = true };
    Two_pc.Commit { txid = "s0.e1.7" };
    Two_pc.Abort { txid = "s0.e1.8" };
    Two_pc.Status { txid = "s0.e1.8"; from_shard = 1 };
  ]

let stat_samples = [ stat; { stat with ephemeral_owner = None; czxid = -3 } ]

let txn_op_samples : Txn.op list =
  List.concat_map (fun (t : Txn.t) -> t.ops) txn_samples
  @ [
      Tprep { txid = "s0.e1.7"; coord = 0; ops = wop_samples };
      Tdecide { txid = "s0.e1.7"; commit = true; participants = [ 0; 1 ] };
      Tresolve { txid = "s0.e1.8"; commit = false };
    ]

let portable_sample : Zk.Data_tree.portable =
  let node ?(children = []) ?owner ~czxid data =
    let n = Zk.Znode.create ~data ~czxid ~ephemeral_owner:owner in
    n.version <- 1;
    n.children <- Zk.Znode.Children.of_ascending children;
    n.cversion <- List.length children;
    n
  in
  {
    img_nodes =
      [
        ("/", node ~children:[ "a" ] ~czxid:0 "");
        ("/a", node ~children:[ "b"; "c" ] ~czxid:1 "alpha");
        ("/a/b", node ~czxid:2 "beta");
        ("/a/c", node ~owner:42 ~czxid:3 "\xff");
      ];
    img_next_czxid = 4;
  }

let shapes =
  [
    Shape
      {
        name = "zab";
        write = Zab_wire.write ~payload:W.str;
        read = Zab_wire.read ~payload:R.str;
        samples = zab_samples;
      };
    Shape
      {
        name = "pbft";
        write = Pbft_wire.write ~payload:W.str;
        read = Pbft_wire.read ~payload:R.str;
        samples = pbft_samples;
      };
    Shape
      {
        name = "server_wire";
        write = Zk.Server_wire.write;
        read = Zk.Server_wire.read;
        samples = server_wire_samples;
      };
    Shape
      {
        name = "client_msg";
        write = WF.write_client_msg;
        read = WF.read_client_msg;
        samples =
          [
            Connect;
            Reconnect { session = 9 };
            Request { session = 9; xid = 1; op = P.Sync };
            Ping { session = 9 };
            Close_session { session = 9 };
          ];
      };
    Shape
      {
        name = "server_msg";
        write = WF.write_server_msg;
        read = WF.read_server_msg;
        samples =
          [
            Connect_ok { session = 9 };
            Reply { xid = 1; result = P.Synced };
            Watch_event { path = "/w"; kind = P.Node_deleted };
            Expired;
          ];
      };
    Shape
      {
        name = "op";
        write = WF.write_op;
        read = WF.read_op;
        samples = op_samples @ [ P.Multi { ops = wop_samples } ];
      };
    Shape
      {
        name = "result";
        write = WF.write_result;
        read = WF.read_result;
        samples = result_samples @ [ P.Multi_ok ];
      };
    Shape
      {
        name = "zerror";
        write = WF.write_zerror;
        read = WF.read_zerror;
        samples = zerror_samples;
      };
    Shape
      {
        name = "watch_kind";
        write = WF.write_watch_kind;
        read = WF.read_watch_kind;
        samples = watch_kind_samples;
      };
    Shape
      {
        name = "stat";
        write = WF.write_stat;
        read = WF.read_stat;
        samples = stat_samples;
      };
    Shape
      {
        name = "txn_op";
        write = WF.write_txn_op;
        read = WF.read_txn_op;
        samples = txn_op_samples;
      };
    Shape
      {
        name = "txn";
        write = WF.write_txn;
        read = WF.read_txn;
        samples = txn_samples;
      };
    Shape
      {
        name = "portable";
        write = WF.write_portable;
        read = WF.read_portable;
        samples = [ portable_sample ];
      };
    Shape
      {
        name = "2pc_wop";
        write = Two_pc.write_wop;
        read = Two_pc.read_wop;
        samples = wop_samples;
      };
    Shape
      {
        name = "2pc_frame";
        write = Two_pc.write_frame;
        read = Two_pc.read_frame;
        samples = frame_samples;
      };
  ]

(* encoded samples keyed "<shape>/<index>", the golden table's keys *)
let shape_encodings (Shape { name; write; samples; _ }) =
  List.mapi
    (fun i v -> (Printf.sprintf "%s/%d" name i, encode_with write v))
    samples

(* The replica state that [test_snapshot_corrupt_blob_rejected] corrupts:
   a seed-11 cluster after a handful of writes. *)
let seed11_server () =
  let sim = Sim.create ~seed:11 () in
  let cluster = Zk.Cluster.create sim in
  Proc.spawn sim (fun () ->
      let c = Zk.Cluster.connected_client cluster () in
      ignore (Zk.Client.create_node c "/a" "alpha");
      ignore (Zk.Client.create_node c "/a/b" "beta");
      for i = 1 to 5 do
        ignore (Zk.Client.set_data c "/a" (string_of_int i))
      done);
  Sim.run ~until:(Sim_time.sec 2) sim;
  (Zk.Cluster.servers cluster).(0)

let to_hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* Golden bytes: one encoding per sample of [shapes], keyed like
   [shape_encodings], plus the seed-11 snapshot blob.  The table was
   captured from an encoder independent of the streaming writers (the
   generic tree encoder, fed per-shape trees); it pins the byte format,
   so a codec edit that changes any byte fails here. *)
let golden =
  [
    ("zab/0", "031001010001010201010e010580cee4cd02");
    ("zab/1", "030c010100010104010100010100");
    ( "zab/2",
      "033601010201010401010a030601010601015203230310030601010601015203"
       ^ "06010100020161030f030601010601015403050101000200" );
    ( "zab/3",
      "035801010201010401010e030601010601015203450326030601010601015603"
       ^ "1c0101020309010100010102010104030c010100010102010104010106031b03"
       ^ "060101060101580311010104030c010100010102010104010106" );
    ("zab/4", "030901010401010401010c");
    ("zab/5", "030901010601010401010c");
    ("zab/6", "03110101080101080101020306010106010152");
    ("zab/7", "030601010a010108");
    ("zab/8", "030901010c010108010106");
    ( "zab/9",
      "032001010e010108010108031203100306010106010152030601010002017001"
       ^ "010a" );
    ( "zab/10",
      "032401010e010108010108031603140306010106010152030a01010203030101"
       ^ "00030001010a" );
    ( "zab/11",
      "03290101100101080102c80101028018010280080201640102c601030e010100"
       ^ "0309010100010102010104" );
    ( "zab/12",
      "033401011001010a0102c80101028018010280080201640102c6010319010102"
       ^ "03090101000101020101040309010102010104010106" );
    ( "zab/13",
      "034f0101120101080102c8010101020240000000000000000000000000000000"
       ^ "0000000000000000000000000000000000000000000000000000000000000000"
       ^ "0000000000000000000000000000000000" );
    ("zab/14", "030d0101140101080102c801010104");
    ("zab/15", "0309010116010100010108");
    ("zab/16", "030901011601010c010106");
    ("zab/17", "030601011801010c");
    ("zab/18", "030d01011a01010c010580e2ea9809");
    ("zab/19", "030901011a010102010100");
    ("zab/20", "030c01011a0101040104fface204");
    ("zab/21", "030901011c01010001010a");
    ("zab/22", "030901011c010112010106");
    ( "pbft/0",
      "031f010100010100010106030e030c030601011201010402026f70010480ade2"
       ^ "04" );
    ("pbft/1", "0309010102010100010106");
    ("pbft/2", "0309010104010100010106");
    ("pbft/3", "0317010106010102030d030b03060101120101040201610300");
    ("pbft/4", "0306010108010102");
    ("pbft/5", "030301010a");
    ("pbft/6", "030601010c010102");
    ("server_wire/0", "03080101000303010100");
    ("server_wire/1", "030b0101000306010102010112");
    ( "server_wire/2",
      "0320010100031b010104010112010102031001010002022f6102016401010201"
       ^ "0100" );
    ("server_wire/3", "030b0101000306010106010112");
    ("server_wire/4", "030b0101000306010108010112");
    ("server_wire/5", "030b0101020306010100010112");
    ("server_wire/6", "0310010102030b0101020101020303010102");
    ("server_wire/7", "030f010102030a01010402022f77010106");
    ("server_wire/8", "03080101020303010106");
    ("server_wire/9", "0314010104030f010100010102010100010480c2d72f");
    ("server_wire/10", "0311010106010104010112010106030301010e");
    ("server_wire/11", "030a0101080101040102d20f");
    ("server_wire/12", "030901010a010100010112");
    ("server_wire/13", "030601010c010112");
    ("server_wire/14", "030601010e010112");
    ( "server_wire/15",
      "03be0101010403b80101010201010401010a030601010601015203a40103a101"
       ^ "0306010106010152039601010100039001030301010201015401010e0377030f"
       ^ "01010002022f610201640303010154030701010202022f62030d01010402022f"
       ^ "61020178010106030d0101060101540102d00f01010203060101080101520309"
       ^ "01010a010154010104031301010c01015401010201010e02052f676174650310"
       ^ "01010e01015402052f676174650101000303010110030701010002022f610101"
       ^ "00" );
    ("client_msg/0", "0303010100");
    ("client_msg/1", "0306010102010112");
    ("client_msg/2", "030e010104010112010102030301010e");
    ("client_msg/3", "0306010106010112");
    ("client_msg/4", "0306010108010112");
    ("server_msg/0", "0306010100010112");
    ("server_msg/1", "030b0101020101020303010110");
    ("server_msg/2", "030a01010402022f77010102");
    ("server_msg/3", "0303010106");
    ("op/0", "031001010002022f61020164010102010100");
    ("op/1", "030c01010202022f610303010104");
    ("op/2", "030901010202022f610300");
    ("op/3", "030b01010402022f6102000300");
    ("op/4", "030a01010602022f61010102");
    ("op/5", "030901010802012f010100");
    ("op/6", "030a01010a02022f78010102");
    ("op/7", "030701010c02022f62");
    ("op/8", "030301010e");
    ( "op/9",
      "032f010110032a030e01010002052f73302f6102020064030c01010202052f73"
       ^ "312f620200030a01010402052f73312f63" );
    ("result/0", "0311010100020c2f6130303030303030303031");
    ("result/1", "0303010102");
    ("result/2", "0306010104010108");
    ( "result/3",
      "031f0101060207627974657300ff0311010104010122030301010a0101020101"
       ^ "06" );
    ("result/4", "030b0101080306020161020162");
    ("result/5", "031801010a03130311010104010122030301010a010102010106");
    ("result/6", "030501010a0300");
    ("result/7", "030601010c020176");
    ("result/8", "030f01010e020a73657269616c697a6564");
    ("result/9", "0303010110");
    ("result/10", "0306010112010100");
    ("result/11", "030e01011203090101160204626f6f6d");
    ("result/12", "0303010114");
    ("zerror/0", "010100");
    ("zerror/1", "010102");
    ("zerror/2", "010104");
    ("zerror/3", "010106");
    ("zerror/4", "010108");
    ("zerror/5", "01010a");
    ("zerror/6", "01010c");
    ("zerror/7", "01010e");
    ("zerror/8", "010110");
    ("zerror/9", "010112");
    ("zerror/10", "010114");
    ("zerror/11", "03090101160204626f6f6d");
    ("zerror/12", "010118");
    ("zerror/13", "01011a");
    ("watch_kind/0", "010100");
    ("watch_kind/1", "010102");
    ("watch_kind/2", "010104");
    ("watch_kind/3", "010106");
    ("stat/0", "0311010104010122030301010a010102010106");
    ("stat/1", "030e0101040101050300010102010106");
    ("txn_op/0", "030f01010002022f610201640303010154");
    ("txn_op/1", "030701010202022f62");
    ("txn_op/2", "030d01010402022f61020178010106");
    ("txn_op/3", "030d0101060101540102d00f010102");
    ("txn_op/4", "0306010108010152");
    ("txn_op/5", "030901010a010154010104");
    ("txn_op/6", "031301010c01015401010201010e02052f67617465");
    ("txn_op/7", "031001010e01015402052f67617465010100");
    ("txn_op/8", "0303010110");
    ("txn_op/9", "030901010202042f746d70");
    ( "txn_op/10",
      "033b010112020773302e65312e37010100032a030e01010002052f73302f6102"
       ^ "020064030c01010202052f73312f620200030a01010402052f73312f63" );
    ("txn_op/11", "0317010114020773302e65312e370101020306010100010102");
    ("txn_op/12", "030f010116020773302e65312e38010100");
    ( "txn/0",
      "039001030301010201015401010e0377030f01010002022f6102016403030101"
       ^ "54030701010202022f62030d01010402022f61020178010106030d0101060101"
       ^ "540102d00f0101020306010108010152030901010a010154010104031301010c"
       ^ "01015401010201010e02052f67617465031001010e01015402052f6761746501"
       ^ "01000303010110030701010002022f61010100" );
    ("txn/1", "031d0300010100010100030b030901010202042f746d700303010110010102");
    ( "portable/0",
      "037a0375031702012f0312020001010203030201610101020101000300032002"
       ^ "022f61031a0205616c7068610101020306020162020163010104010102030003"
       ^ "1b02042f612f62031302046265746101010203000101000101040300031b0204"
       ^ "2f612f6303130201ff01010203000101000101060303010154010108" );
    ("2pc_wop/0", "030e01010002052f73302f6102020064");
    ("2pc_wop/1", "030c01010202052f73312f620200");
    ("2pc_wop/2", "030a01010402052f73312f63");
    ( "2pc_frame/0",
      "0343010100020773302e65312e370101000306010100010102032a030e010100"
       ^ "02052f73302f6102020064030c01010202052f73312f620200030a0101040205"
       ^ "2f73312f63" );
    ("2pc_frame/1", "0312010102020773302e65312e37010102010102");
    ("2pc_frame/2", "030c010104020773302e65312e37");
    ("2pc_frame/3", "030c010106020773302e65312e38");
    ("2pc_frame/4", "030f010108020773302e65312e38010102");
    ( "snapshot/seed11",
      "037203560351031702012f031202000101000303020161010102010100030003"
       ^ "1902022f61031302013501010a03030201620101020101020300031b02042f61"
       ^ "2f62031302046265746101010003000101000101040300010106030e030c0103"
       ^ "82897a0102d00f01010003000300030003000300" );
  ]

let test_golden_bytes () =
  let check key bytes =
    match List.assoc_opt key golden with
    | None -> Alcotest.failf "%s: no golden bytes" key
    | Some hex -> Alcotest.(check string) key hex (to_hex bytes)
  in
  let encodings =
    List.concat_map shape_encodings shapes
    @ [ ("snapshot/seed11", Zk.Server.snapshot_bytes (seed11_server ())) ]
  in
  List.iter (fun (k, b) -> check k b) encodings;
  Alcotest.(check int) "every golden entry is exercised" (List.length golden)
    (List.length encodings)

let test_protocol_roundtrip () =
  let roundtrip name write read v =
    match R.run (encode_with write v) read with
    | Ok v' -> Alcotest.(check bool) name true (v = v')
    | Error e -> Alcotest.failf "%s decode: %s" name e
  in
  List.iter (roundtrip "op" WF.write_op WF.read_op) op_samples;
  List.iter (roundtrip "result" WF.write_result WF.read_result) result_samples;
  List.iter (roundtrip "txn" WF.write_txn WF.read_txn) txn_samples

let test_server_wire_roundtrip () =
  List.iter
    (fun m ->
      match Zk.Server_wire.decode (Zk.Server_wire.encode m) with
      | Ok m' -> Alcotest.(check bool) "server wire" true (m = m')
      | Error e -> Alcotest.failf "server wire decode: %s" e)
    server_wire_samples;
  (* truncations of a full server message never raise and never pass *)
  let s = Zk.Server_wire.encode (List.nth server_wire_samples 2) in
  for k = 0 to String.length s - 1 do
    match Zk.Server_wire.decode (String.sub s 0 k) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d decoded" k
  done

(* ------------------------------------------------------------------ *)
(* Streaming codec (§6g): [Writer.tree] must be byte-identical to      *)
(* [Wire.encode], and [Reader.tree] must accept exactly what           *)
(* [Wire.decode] accepts, so the streaming primitives every shape      *)
(* codec is built from keep the frame format's canonical-form and      *)
(* totality guarantees.                                                *)
(* ------------------------------------------------------------------ *)

let stream_of_tree v = W.with_writer (fun w -> W.tree w v)
let tree_of_stream s = R.run s R.tree

let prop_writer_byte_identity =
  QCheck.Test.make ~name:"streaming writer byte-identical to tree encoder"
    ~count:500 wire_arb (fun v ->
      String.equal (stream_of_tree v) (Wire.encode v))

(* the two decoders agree: same accept/reject verdict, same value on
   accept (error text may differ — messages are not part of the spec) *)
let decoders_agree s =
  match (Wire.decode s, tree_of_stream s) with
  | Ok a, Ok b -> a = b
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_reader_differential_valid =
  QCheck.Test.make ~name:"streaming reader decodes what the tree decoder does"
    ~count:500 wire_arb (fun v -> tree_of_stream (Wire.encode v) = Ok v)

let prop_reader_differential_truncation =
  QCheck.Test.make ~name:"streaming reader rejects every truncation"
    ~count:200 wire_arb (fun v ->
      let s = Wire.encode v in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        let s' = String.sub s 0 k in
        (match tree_of_stream s' with Error _ -> () | Ok _ -> ok := false);
        if not (decoders_agree s') then ok := false
      done;
      !ok)

let prop_reader_differential_garbage =
  QCheck.Test.make ~name:"streaming reader ≡ tree decoder on garbage"
    ~count:1000
    QCheck.(string_gen QCheck.Gen.(char_range '\000' '\255'))
    decoders_agree

let prop_reader_differential_bitflip =
  QCheck.Test.make ~name:"streaming reader ≡ tree decoder on bit flips"
    ~count:200 wire_arb (fun v ->
      let s = Wire.encode v in
      let ok = ref true in
      String.iteri
        (fun i c ->
          let b = Bytes.of_string s in
          Bytes.set b i (Char.chr (Char.code c lxor 0x40));
          if not (decoders_agree (Bytes.to_string b)) then ok := false)
        s;
      !ok)

(* reader errors name the byte offset where decoding failed *)
let has_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_reader_errors_carry_offsets () =
  let check name s =
    match tree_of_stream s with
    | Ok _ -> Alcotest.failf "%s decoded" name
    | Error e ->
        if not (has_substring ~sub:"byte" e) then
          Alcotest.failf "%s: error lacks a byte offset: %S" name e
  in
  check "empty input" "";
  check "truncated int" "\x01";
  check "unknown tag" "\x07\x01a";
  check "truncated str payload" ("\x02" ^ craft_varint 5 ^ "ab");
  check "non-minimal varint" ("\x02\x81\x00" ^ "a");
  check "trailing bytes" (Wire.encode (Wire.Int 1) ^ "x")

(* Non-canonical headers at the widths the readers decode inline: a
   2-byte length whose last group is zero, and a 9-byte int varint whose
   last group is zero.  The tree decoder, the tree reader and the typed
   reader for the frame's own shape each reject every one. *)
let test_readers_reject_noncanonical_fast_widths () =
  let int9 = "\x01\x09" ^ String.make 8 '\x80' ^ "\x00" in
  let cases =
    [
      ("2-byte zero str length", "\x02\x80\x00", fun r -> ignore (R.str r : string));
      (* read with a 1-byte header, this would be the valid Str "\x00" *)
      ( "2-byte non-minimal str length",
        "\x02\x81\x00",
        fun r -> ignore (R.str r : string) );
      ("2-byte zero list length", "\x03\x80\x00", fun r -> ignore (R.list r R.int : int list));
      ( "2-byte non-minimal list length",
        "\x03\x83\x00" ^ Wire.encode (Wire.Int 1),
        fun r -> ignore (R.list r R.int : int list) );
      ("9-byte int, last group zero", int9, fun r -> ignore (R.int r : int));
      ( "2-byte int, last group zero",
        "\x01\x02\x85\x00",
        fun r -> ignore (R.int r : int) );
    ]
  in
  List.iter
    (fun (name, s, read) ->
      check_rejected name s;
      (match tree_of_stream s with
      | Ok _ -> Alcotest.failf "%s: Reader.tree accepted it" name
      | Error _ -> ());
      match R.run s read with
      | Ok () -> Alcotest.failf "%s: the typed reader accepted it" name
      | Error _ -> ())
    cases;
  (* and their minimal spellings pass every fast path *)
  let str200 = String.make 200 'a' and big = (1 lsl 62) - 1 in
  Alcotest.(check (result string string)) "2-byte str length" (Ok str200)
    (R.run (Wire.encode (Wire.Str str200)) R.str);
  Alcotest.(check (result int string)) "9-byte int" (Ok big)
    (R.run (Wire.encode (Wire.Int big)) R.int);
  Alcotest.(check (result int string)) "9-byte int, negative" (Ok min_int)
    (R.run (Wire.encode (Wire.Int min_int)) R.int)

(* the streaming writer enforces the same depth cap as the tree encoder *)
let test_writer_rejects_overdeep () =
  let rec nest d v = if d = 0 then v else nest (d - 1) (Wire.List [ v ]) in
  (match stream_of_tree (nest (Wire.max_depth - 1) (Wire.Int 1)) with
  | _ -> ()
  | exception Invalid_argument _ ->
      Alcotest.fail "max_depth itself must stream-encode");
  match stream_of_tree (nest Wire.max_depth (Wire.Int 1)) with
  | _ -> Alcotest.fail "over-deep tree must not stream-encode"
  | exception Invalid_argument _ -> ()

(* Canonicality.  Each shape has one codec, so there is no second decoder
   to agree with; instead every reader must accept only the bytes its
   writer produces.  On any input the reader must not raise, and when it
   accepts, re-encoding the value must give back exactly the input, which
   the generic [Wire.decode] must accept too. *)
let canonical_violation ~write ~read s =
  match R.run s read with
  | exception e -> Some ("reader raised " ^ Printexc.to_string e)
  | Error _ -> None
  | Ok v ->
      if not (String.equal (encode_with write v) s) then
        Some "accepted bytes re-encode differently"
      else if Result.is_error (Wire.decode s) then
        Some "Wire.decode rejects accepted bytes"
      else None

(* [s], every proper prefix, and every single-byte substitution: the
   first violation found, as (mutant, reason) *)
let first_violation ~write ~read s =
  let found = ref None in
  let check what s' =
    if !found = None then
      Option.iter
        (fun why -> found := Some (what, why))
        (canonical_violation ~write ~read s')
  in
  check "intact" s;
  for k = 0 to String.length s - 1 do
    check (Printf.sprintf "truncated to %d bytes" k) (String.sub s 0 k)
  done;
  String.iteri
    (fun i c ->
      for v = 0 to 255 do
        if v <> Char.code c then begin
          let b = Bytes.of_string s in
          Bytes.set b i (Char.chr v);
          check (Printf.sprintf "byte %d set to 0x%02x" i v) (Bytes.to_string b)
        end
      done)
    s;
  !found

(* The seed-11 blob with its four empty 2PC tables (locks, prepared,
   decisions, audit) filled in, so the snapshot reader's 2PC arms are
   mutated too. *)
let with_2pc_tables blob =
  let open Wire in
  match decode blob with
  | Ok (List [ tree; sessions; blocked; List []; List []; List []; List [] ])
    ->
      encode
        (List
           [
             tree;
             sessions;
             blocked;
             List [ List [ Str "/s1/y"; Str "s0.e1.7" ] ];
             List
               [
                 List
                   [
                     Str "s0.e1.7"; Int 0;
                     List [ List [ Int 0; Str "/s1/y"; Str "r" ] ];
                   ];
               ];
             List [ List [ Str "s0.e1.6"; Int 1 ] ];
             List
               [ List [ Str "s0.e1.5"; Int 0 ]; List [ Str "s0.e1.6"; Int 1 ] ];
           ])
  | _ -> Alcotest.fail "seed-11 snapshot blob has an unexpected layout"

let test_readers_canonical () =
  let check name ~write ~read s =
    (match R.run s read with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: intact encoding rejected: %s" name e);
    match first_violation ~write ~read s with
    | None -> ()
    | Some (what, why) -> Alcotest.failf "%s, %s: %s" name what why
  in
  List.iter
    (fun (Shape { write; read; _ } as sh) ->
      List.iter (fun (k, s) -> check k ~write ~read s) (shape_encodings sh))
    shapes;
  let blob = Zk.Server.snapshot_bytes (seed11_server ()) in
  List.iter
    (fun (k, s) ->
      check k ~write:Zk.Server.write_snapshot ~read:Zk.Server.read_snapshot s)
    [ ("snapshot/seed11", blob); ("snapshot/seed11+2pc", with_2pc_tables blob) ]

(* The property has teeth: a [read_stat] that skips trailing fields
   instead of rejecting them is caught.  Emptying the ephemeral-owner
   option strands the last field, which the lax reader accepts and the
   writer then drops. *)
let test_canonicality_catches_lax_reader () =
  let lax_read_stat r =
    R.begin_list r;
    let version = R.int r in
    let czxid = R.int r in
    let ephemeral_owner = R.option r R.int in
    let num_children = R.int r in
    let data_length = R.int r in
    while R.has_more r do
      ignore (R.tree r : Wire.t)
    done;
    R.end_list r;
    { Zk.Znode.version; czxid; ephemeral_owner; num_children; data_length }
  in
  let s = encode_with WF.write_stat stat in
  Alcotest.(check bool) "read_stat is canonical" true
    (first_violation ~write:WF.write_stat ~read:WF.read_stat s = None);
  match first_violation ~write:WF.write_stat ~read:lax_read_stat s with
  | Some _ -> ()
  | None -> Alcotest.fail "the lax read_stat was not caught"

(* decode_sub reads a frame out of the middle of a reassembly buffer
   without copying; bytes outside [pos, pos+len) are invisible *)
let test_decode_sub_slice () =
  let m = List.nth server_wire_samples 2 in
  let s = Zk.Server_wire.encode m in
  let padded = "\xde\xad" ^ s ^ "\xbe" in
  (match Zk.Server_wire.decode_sub padded ~pos:2 ~len:(String.length s) with
  | Ok m' -> Alcotest.(check bool) "slice decode" true (m = m')
  | Error e -> Alcotest.failf "slice decode: %s" e);
  (* a byte of trailing garbage inside the slice is rejected, exactly
     like decoding a padded string would be *)
  match Zk.Server_wire.decode_sub padded ~pos:2 ~len:(String.length s + 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "slice with trailing byte decoded"

(* The codec allocates no scratch.  Once the pools are warm, decoding a
   kv_write reply allocates only the value it returns ([Ok],
   [Server_msg], [Reply], [Set]: 9 words), and encoding it only its
   result string.  A fresh reader record and limits array cost 24 words
   more per decode, a capturing closure and a free-list cell 7 more per
   encode.  A decode nested inside another takes a reader of its own. *)
let test_codec_allocates_no_scratch () =
  let m =
    Zk.Server.Server_msg (P.Reply { xid = 4_242; result = P.Set { version = 1_234 } })
  in
  let s = Zk.Server_wire.encode m in
  let len = String.length s in
  let per_call f =
    let n = 1000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let decode () = Zk.Server_wire.decode_sub s ~pos:0 ~len in
  Alcotest.(check bool) "the reply roundtrips" true (decode () = Ok m);
  let decoded = per_call decode in
  if decoded > 9. then
    Alcotest.failf "a %d-byte reply decodes in %.1f words, want <= 9" len decoded;
  let string_words = 1 + ((len + 8) / 8) in
  let encoded = per_call (fun () -> Zk.Server_wire.encode m) in
  if encoded > float_of_int string_words then
    Alcotest.failf "a %d-byte reply encodes in %.1f words, want <= %d" len encoded
      string_words;
  let nested =
    Wire.Reader.run s (fun r ->
        let inner = decode () in
        (Zk.Server_wire.read r, inner))
  in
  Alcotest.(check bool) "a nested decode keeps both cursors apart" true
    (nested = Ok (m, Ok m))

(* Outbuf owns the partial-write problem: a kernel that takes a few
   bytes at a time (or none — EAGAIN) must see every byte exactly once,
   in order, with the unwritten suffix retained across flushes *)
let test_outbuf_short_writes () =
  let ob = Outbuf.create ~capacity:8 () in
  let u32 v = String.init 4 (fun i -> Char.chr ((v lsr (24 - (8 * i))) land 0xff)) in
  let payload = String.init 64 (fun i -> Char.chr (i * 7 land 0xff)) in
  Outbuf.add_u32 ob 0xAABBCCDD;
  Outbuf.add_substring ob payload 0 (String.length payload);
  let expect = u32 0xAABBCCDD ^ payload in
  Alcotest.(check int) "pending counts queued bytes" (String.length expect)
    (Outbuf.pending ob);
  let out = Buffer.create 128 in
  (* first flush: the fake kernel takes 3 bytes then stalls (EAGAIN) *)
  let burst = ref true in
  let take3_then_stall buf off len =
    if not !burst then 0
    else begin
      burst := false;
      let n = min 3 len in
      Buffer.add_subbytes out buf off n;
      n
    end
  in
  let wrote = Outbuf.flush ob ~write:take3_then_stall in
  Alcotest.(check int) "short write took 3 bytes" 3 wrote;
  Alcotest.(check int) "suffix retained for the next flush"
    (String.length expect - 3) (Outbuf.pending ob);
  (* appending while a suffix is parked must not reorder anything *)
  Outbuf.add_substring ob "TAIL" 0 4;
  (* drain through a tiny window: ≤3 bytes per call, stalling every
     third call — several flush rounds needed *)
  let calls = ref 0 in
  let tiny buf off len =
    incr calls;
    if !calls mod 3 = 0 then 0
    else begin
      let n = min 3 len in
      Buffer.add_subbytes out buf off n;
      n
    end
  in
  let guard = ref 0 in
  while Outbuf.pending ob > 0 && !guard < 1000 do
    incr guard;
    ignore (Outbuf.flush ob ~write:tiny : int)
  done;
  Alcotest.(check int) "queue fully drained" 0 (Outbuf.pending ob);
  Alcotest.(check string) "byte stream preserved, in order" (expect ^ "TAIL")
    (Buffer.contents out)

(* ------------------------------------------------------------------ *)
(* Snapshot blobs: corrupt bytes are rejected, state untouched         *)
(* ------------------------------------------------------------------ *)

let run_until sim ~step ~limit pred =
  let deadline = Sim_time.add (Sim.now sim) limit in
  let rec go () =
    if pred () then true
    else if Sim_time.compare (Sim.now sim) deadline >= 0 then false
    else begin
      Sim.run ~until:(Sim_time.add (Sim.now sim) step) sim;
      go ()
    end
  in
  go ()

(* the blob's bytes are pinned by the golden table ("snapshot/seed11") *)
let test_snapshot_corrupt_blob_rejected () =
  let s0 = seed11_server () in
  let blob = Zk.Server.snapshot_bytes s0 in
  Alcotest.(check bool) "capture is deterministic" true
    (String.equal blob (Zk.Server.snapshot_bytes s0));
  (* victim replica in a second deployment; corrupt installs must leave
     its state byte-identical *)
  let vsim = Sim.create ~seed:12 () in
  let victim = (Zk.Cluster.servers (Zk.Cluster.create vsim)).(0) in
  let baseline () = Zk.Server.snapshot_bytes victim in
  let before = baseline () in
  (* the intact blob is installable — the corruptions below fail for
     their corruption, not for some unrelated reason *)
  (match Zk.Server.install_snapshot victim blob with
  | Ok () -> ()
  | Error e -> Alcotest.failf "intact blob rejected: %s" e);
  (match Zk.Server.install_snapshot victim before with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore rejected: %s" e);
  (* every truncation: clean Error, no state change *)
  for k = 0 to String.length blob - 1 do
    match Zk.Server.install_snapshot victim (String.sub blob 0 k) with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "truncation at %d installed" k
  done;
  Alcotest.(check bool) "state untouched after truncations" true
    (String.equal before (baseline ()));
  (* every single-byte corruption: never raises; on Error the state is
     untouched (a flip inside a data payload can still be a valid blob) *)
  let rejected = ref 0 in
  String.iteri
    (fun i c ->
      let b = Bytes.of_string blob in
      Bytes.set b i (Char.chr (Char.code c lxor 0xff));
      match Zk.Server.install_snapshot victim (Bytes.to_string b) with
      | Ok () ->
          (* structurally valid mutant: restore the baseline *)
          ignore (Zk.Server.install_snapshot victim before)
      | Error _ ->
          incr rejected;
          if not (String.equal before (baseline ())) then
            Alcotest.failf "rejected install at byte %d mutated state" i)
    blob;
  Alcotest.(check bool) "some corruptions structurally rejected" true (!rejected > 0)

(* a follower whose install hook rejects the blob re-requests the
   transfer instead of dying; once the hook accepts, it catches up *)

let hist_encode (hist : (Zab.zxid * string) list) =
  Wire.encode
    (Wire.List
       (List.map
          (fun ((z : Zab.zxid), s) ->
            Wire.List [ Wire.Int z.epoch; Wire.Int z.counter; Wire.Str s ])
          hist))

let hist_decode blob =
  R.run blob (fun r ->
      R.list r (fun r ->
          R.begin_list r;
          let epoch = R.int r in
          let counter = R.int r in
          let s = R.str r in
          R.end_list r;
          (({ Zab.epoch; counter } : Zab.zxid), s)))

let test_follower_rerequests_on_reject () =
  let n = 3 in
  let sim = Sim.create ~seed:21 () in
  let net = Net.create sim in
  let peers = List.init n Fun.id in
  let delivered = Array.make n [] in
  let send_from i ~dst msg =
    Net.send net ~src:i ~dst ~size:(Zab.msg_size ~payload_size:String.length msg) msg
  in
  let replicas =
    Array.init n (fun i ->
        Zab.create ~sim ~id:i ~peers ~send:(send_from i)
          ~on_deliver:(fun zxid p -> delivered.(i) <- (zxid, p) :: delivered.(i))
          ~initial_leader:0 ())
  in
  Array.iteri
    (fun i r ->
      Net.register net i (fun ~src ~size:_ msg -> Zab.handle r ~src msg);
      Zab.start r)
    replicas;
  let run_for d = Sim.run ~until:(Sim_time.add (Sim.now sim) d) sim in
  run_for (Sim_time.ms 10);
  Zab.crash replicas.(2);
  Net.set_node_down net 2;
  for k = 1 to 200 do
    ignore (Zab.propose replicas.(0) (Printf.sprintf "%06d" k) : Zab.zxid option)
  done;
  run_for (Sim_time.sec 1);
  List.iter
    (fun i ->
      Zab.compact replicas.(i) ~take:(fun () ->
          let hist = delivered.(i) in
          fun () -> hist_encode hist))
    [ 0; 1 ];
  (* reject the first two completed transfers, accept from then on *)
  let rejections = ref 2 in
  Zab.set_install_snapshot replicas.(2) (fun blob ->
      if !rejections > 0 then begin
        decr rejections;
        Error "injected reject"
      end
      else Result.map (fun h -> delivered.(2) <- h) (hist_decode blob));
  Net.set_node_up net 2;
  Zab.restart replicas.(2);
  let caught_up () = List.length delivered.(2) >= 200 in
  let ok = run_until sim ~step:(Sim_time.ms 10) ~limit:(Sim_time.sec 30) caught_up in
  Alcotest.(check bool) "follower caught up after rejects" true ok;
  let stats = Zab.xfer_stats replicas.(2) in
  Alcotest.(check int) "both rejects counted" 2 stats.Zab.install_rejects;
  Alcotest.(check bool) "follower state equals the leader's" true
    (delivered.(2) = delivered.(0))

(* ------------------------------------------------------------------ *)
(* End to end over real sockets                                        *)
(* ------------------------------------------------------------------ *)

let test_tcp_counter_workload () =
  let sim = Sim.create ~seed:31 () in
  let base_port = Tcp_transport.local_base_port ~slot:0 in
  let hub =
    Tcp_transport.create ~sim ~base_port ~encode:Zk.Server_wire.encode
      ~decode:Zk.Server_wire.decode_sub ()
  in
  let tr = Tcp_transport.transport hub in
  let replica_ids = [ 0; 1; 2 ] in
  let servers =
    List.map
      (fun id ->
        Zk.Server.create ~sim ~net:tr ~id ~replica_ids ~initial_leader:0 ())
      replica_ids
  in
  List.iter Zk.Server.start servers;
  let increments = 10 in
  let client = Zk.Client.create ~sim ~net:tr ~addr:100 ~replica:1 () in
  let outcome =
    Proc.async sim (fun () ->
        Zk.Client.connect client;
        match Zk.Client.create_node client "/ctr" "0" with
        | Error e -> Error (Format.asprintf "create: %a" Zk.Zerror.pp e)
        | Ok _ ->
            let rec bump i =
              if i > increments then Ok ()
              else
                match Zk.Client.set_data client "/ctr" (string_of_int i) with
                | Ok _ -> bump (i + 1)
                | Error e -> Error (Format.asprintf "set %d: %a" i Zk.Zerror.pp e)
            in
            (match bump 1 with
            | Error _ as e -> e
            | Ok () -> (
                match Zk.Client.get_data client "/ctr" with
                | Ok (v, _) -> Ok v
                | Error e -> Error (Format.asprintf "get: %a" Zk.Zerror.pp e))))
  in
  let deadline = Unix.gettimeofday () +. 60. in
  while (not (Proc.is_fulfilled outcome)) && Unix.gettimeofday () < deadline do
    Tcp_transport.drive hub ~wall:0.05
  done;
  Tcp_transport.shutdown hub;
  (match Proc.value_opt outcome with
  | None ->
      Alcotest.failf "workload did not finish (frames=%d decode_errors=%d)"
        (Tcp_transport.frames_received hub)
        (Tcp_transport.decode_errors hub)
  | Some (Error e) -> Alcotest.failf "workload failed: %s" e
  | Some (Ok v) ->
      Alcotest.(check string) "counter value read back over TCP"
        (string_of_int increments) v);
  Alcotest.(check bool) "traffic actually crossed the sockets" true
    (Tcp_transport.frames_received hub > 0 && Tcp_transport.bytes_sent hub > 0);
  Alcotest.(check int) "no undecodable frames" 0 (Tcp_transport.decode_errors hub)

(* a hub whose peer speaks garbage: decoder errors are counted and
   dropped, the process does not die *)
let test_tcp_garbage_is_dropped () =
  let sim = Sim.create ~seed:32 () in
  let base_port = Tcp_transport.local_base_port ~slot:1 in
  let hub =
    Tcp_transport.create ~sim ~base_port ~encode:Zk.Server_wire.encode
      ~decode:Zk.Server_wire.decode_sub ()
  in
  let tr = Tcp_transport.transport hub in
  let received = ref 0 in
  Transport.register tr 0 (fun ~src:_ ~size:_ _ -> incr received);
  Tcp_transport.poll hub ~timeout:0.01;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port));
  let put_u32 b off v =
    Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
    Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b (off + 3) (Char.chr (v land 0xff))
  in
  (* a well-framed message whose body is not a decodable Wire frame *)
  let body = "this is not a frame" in
  let msg = Bytes.create (8 + String.length body) in
  put_u32 msg 0 (4 + String.length body);
  put_u32 msg 4 7 (* claimed source address *);
  Bytes.blit_string body 0 msg 8 (String.length body);
  ignore (Unix.write sock msg 0 (Bytes.length msg));
  let deadline = Unix.gettimeofday () +. 5. in
  while Tcp_transport.decode_errors hub = 0 && Unix.gettimeofday () < deadline do
    Tcp_transport.poll hub ~timeout:0.05
  done;
  Unix.close sock;
  Tcp_transport.shutdown hub;
  Alcotest.(check int) "garbage counted as decode error" 1
    (Tcp_transport.decode_errors hub);
  Alcotest.(check int) "garbage not dispatched" 0 !received

(* Pipelined writes over TCP: a window of in-flight set_data reaches the
   leader in a few turns, and each turn's proposals leave as one Zab
   Propose.  Every reply is checked, and every replica must end with each
   key's last acknowledged value. *)
let test_tcp_pipelined_group_commit () =
  let sim = Sim.create ~seed:33 () in
  let base_port = Tcp_transport.local_base_port ~slot:2 in
  let hub =
    Tcp_transport.create ~sim ~base_port ~encode:Zk.Server_wire.encode
      ~decode:Zk.Server_wire.decode_sub ()
  in
  let proposes = ref 0 and entries = ref 0 in
  let count (m : Zk.Server.wire) =
    match m with
    | Zk.Server.Zab_msg (Zab.Propose p) ->
        incr proposes;
        entries := !entries + List.length p.entries
    | _ -> ()
  in
  let tr =
    let t = Tcp_transport.transport hub in
    {
      t with
      Transport.send =
        (fun ~src ~dst ~size m ->
          count m;
          t.send ~src ~dst ~size m);
      send_many =
        (fun ~src ~dsts ~size m ->
          count m;
          t.send_many ~src ~dsts ~size m);
    }
  in
  let replica_ids = [ 0; 1; 2 ] in
  let servers =
    List.map
      (fun id ->
        Zk.Server.create ~sim ~net:tr ~id ~replica_ids ~initial_leader:0 ())
      replica_ids
  in
  List.iter Zk.Server.start servers;
  let client = Zk.Client.create ~sim ~net:tr ~addr:100 ~replica:1 () in
  let keys = 200 and ops = 1_000 and window = 32 in
  let path k = Printf.sprintf "/k%03d" k in
  let last_acked = Array.make keys "" in
  let bad_replies = ref 0 in
  let pipeline n op on_reply =
    let q = Queue.create () in
    for i = 0 to n - 1 do
      if Queue.length q >= window then ignore (Proc.await (Queue.pop q) : P.result);
      let p = Zk.Client.request_async client (op i) in
      Proc.on_fulfill p (on_reply i);
      Queue.add p q
    done;
    Queue.iter (fun p -> ignore (Proc.await p : P.result)) q
  in
  let outcome =
    Proc.async sim (fun () ->
        Zk.Client.connect client;
        pipeline keys
          (fun k ->
            P.Create { path = path k; data = ""; ephemeral = false; sequential = false })
          (fun _ r -> match r with P.Created _ -> () | _ -> incr bad_replies);
        let value i = Printf.sprintf "v%04d" i in
        pipeline ops
          (fun i ->
            P.Set_data
              { path = path (i mod keys); data = value i; expected_version = None })
          (fun i r ->
            match r with
            | P.Set _ -> last_acked.(i mod keys) <- value i
            | _ -> incr bad_replies))
  in
  let agreed () =
    List.for_all
      (fun srv ->
        let tree = Zk.Server.tree srv in
        Array.for_all Fun.id
          (Array.mapi
             (fun k v ->
               match Zk.Data_tree.get_data tree (path k) with
               | Ok (d, _) -> String.equal d v
               | Error _ -> false)
             last_acked))
      servers
  in
  let deadline = Unix.gettimeofday () +. 60. in
  while
    (not (Proc.is_fulfilled outcome && agreed ()))
    && Unix.gettimeofday () < deadline
  do
    Tcp_transport.drive hub ~wall:0.02
  done;
  Tcp_transport.shutdown hub;
  Alcotest.(check bool) "workload finished" true (Proc.is_fulfilled outcome);
  Alcotest.(check int) "every reply is Created / Set" 0 !bad_replies;
  Alcotest.(check bool) "every replica holds each key's last acked value" true
    (agreed ());
  Alcotest.(check int) "no undecodable frames" 0 (Tcp_transport.decode_errors hub);
  if not (!entries > !proposes) then
    Alcotest.failf "Propose entries per proposal %d/%d, want > 1" !entries
      !proposes

(* A hub whose messages are plain strings. *)
let string_hub ~seed ~base_port =
  Tcp_transport.create ~sim:(Sim.create ~seed ()) ~base_port ~encode:Fun.id
    ~decode:(fun s ~pos ~len -> Ok (String.sub s pos len))
    ()

(* A peer that accepts and never reads: the cork grows to the hard limit,
   then the connection is dropped and counted as a send failure, like a
   broken pipe.  Every frame up to the limit is taken first. *)
let test_tcp_stalled_reader_bounded () =
  let base_port = Tcp_transport.local_base_port ~slot:3 in
  let hub = string_hub ~seed:34 ~base_port in
  let tr = Tcp_transport.transport hub in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + 1));
  Unix.listen listener 1;
  let body = String.make (1 lsl 20) 'x' in
  let frame = String.length body + 8 in
  tr.send ~src:0 ~dst:1 ~size:0 body;
  let peer, _ = Unix.accept listener in
  let sent = ref 1 in
  while Tcp_transport.send_failures hub = 0 && !sent < 1_000 do
    tr.send ~src:0 ~dst:1 ~size:0 body;
    incr sent
  done;
  Tcp_transport.shutdown hub;
  Unix.close peer;
  Unix.close listener;
  Alcotest.(check int) "one send failure" 1 (Tcp_transport.send_failures hub);
  let fit = Tcp_transport.cork_hard_limit / frame in
  if !sent <= fit then
    Alcotest.failf "dropped after %d frames, before the cork held %d" !sent fit;
  (* what the kernel buffers on loopback is far below another cork's worth *)
  if !sent > 2 * fit then
    Alcotest.failf "cork unbounded: %d frames sent to a stalled reader" !sent

(* Three replicas over TCP with the modelled CPU costs at zero, and a
   client session on follower 1 that has created "/k", set up with
   [drive].  [log] is called with the address and message of every
   dispatch. *)
let logged_deployment ~log ~seed ~base_port =
  let sim = Sim.create ~seed () in
  let hub =
    Tcp_transport.create ~sim ~base_port ~encode:Zk.Server_wire.encode
      ~decode:Zk.Server_wire.decode_sub ()
  in
  let tr =
    let t = Tcp_transport.transport hub in
    {
      t with
      Transport.register =
        (fun addr h ->
          t.register addr (fun ~src ~size m ->
              log addr m;
              h ~src ~size m));
    }
  in
  let config =
    {
      Zk.Server.default_config with
      preprocess_cost = Sim_time.zero;
      read_cost = Sim_time.zero;
    }
  in
  let replica_ids = [ 0; 1; 2 ] in
  let servers =
    List.map
      (fun id ->
        Zk.Server.create ~config ~sim ~net:tr ~id ~replica_ids ~initial_leader:0 ())
      replica_ids
  in
  List.iter Zk.Server.start servers;
  let client = Zk.Client.create ~sim ~net:tr ~addr:100 ~replica:1 () in
  let ready =
    Proc.async sim (fun () ->
        Zk.Client.connect client;
        Zk.Client.create_node client "/k" "0")
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while (not (Proc.is_fulfilled ready)) && Unix.gettimeofday () < deadline do
    Tcp_transport.drive hub ~wall:0.02
  done;
  (match Proc.value_opt ready with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "session and /k not set up");
  (sim, hub, servers, client)

let zero_cost_deployment = logged_deployment ~log:(fun _ _ -> ())

(* Zero-cost server work is the turn's deferred work: with the modelled
   CPU costs at zero, the leader's pre-processor runs in the poll that
   delivers the forwarded write, and a follower's local read replies in
   the poll that delivers it, with no [Sim.run] in between. *)
let test_tcp_zero_cost_same_turn () =
  let sim, hub, servers, client =
    zero_cost_deployment ~seed:36 ~base_port:(Tcp_transport.local_base_port ~slot:4)
  in
  let leader = List.hd servers in
  (* polls only: no simulator event may run from here on *)
  let events = Sim.executed_events sim in
  let polls_until cond =
    let n = ref 0 in
    while (not (cond ())) && !n < 200 do
      Tcp_transport.poll hub ~timeout:0.01;
      incr n
    done;
    cond ()
  in
  let proposals = Zk.Server.proposals leader in
  let write =
    Zk.Client.request_async client
      (P.Set_data { path = "/k"; data = "1"; expected_version = None })
  in
  Alcotest.(check bool) "the leader proposes within polls" true
    (polls_until (fun () -> Zk.Server.proposals leader > proposals));
  let read = Zk.Client.request_async client (P.Get_data { path = "/k"; watch = false }) in
  Alcotest.(check bool) "the local read replies within polls" true
    (polls_until (fun () -> Proc.is_fulfilled read));
  Alcotest.(check int) "no event ran" events (Sim.executed_events sim);
  let deadline = Unix.gettimeofday () +. 30. in
  while (not (Proc.is_fulfilled write)) && Unix.gettimeofday () < deadline do
    Tcp_transport.drive hub ~wall:0.02
  done;
  Tcp_transport.shutdown hub;
  (match Proc.value_opt write with
  | Some (P.Set _) -> ()
  | _ -> Alcotest.fail "the write was not acknowledged");
  Alcotest.(check int) "no undecodable frames" 0 (Tcp_transport.decode_errors hub)

(* An idle poll allocates no per-connection lists: the hub keeps its
   select list and uncorks by walking its array of connection ends.
   Three addresses, each connected to the other two, then 1000 polls
   with nothing to do. *)
let test_tcp_idle_poll_allocates_little () =
  let base_port = Tcp_transport.local_base_port ~slot:5 in
  let hub = string_hub ~seed:35 ~base_port in
  let tr = Tcp_transport.transport hub in
  let addrs = [ 0; 1; 2 ] in
  List.iter (fun a -> tr.register a (fun ~src:_ ~size:_ _ -> ())) addrs;
  List.iter
    (fun src ->
      List.iter (fun dst -> if src <> dst then tr.send ~src ~dst ~size:0 "hi") addrs)
    addrs;
  let deadline = Unix.gettimeofday () +. 5. in
  while Tcp_transport.frames_received hub < 6 && Unix.gettimeofday () < deadline do
    Tcp_transport.poll hub ~timeout:0.01
  done;
  Alcotest.(check int) "every pair connected" 6 (Tcp_transport.frames_received hub);
  let polls = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to polls do
    Tcp_transport.poll hub ~timeout:0.
  done;
  let per_poll = (Gc.minor_words () -. w0) /. float_of_int polls in
  Tcp_transport.shutdown hub;
  Alcotest.(check int) "nothing arrived while idle" 6 (Tcp_transport.frames_received hub);
  (* 4 words: select's result triple; uncorking by folding a table of
     connections took 24, rebuilding the descriptor and connection lists
     ~150 *)
  if per_poll > 4. then
    Alcotest.failf "an idle poll allocates %.1f words, want <= 4" per_poll

(* A peer that closes its end: the hub's writes then meet a reset, which
   counts a send failure; it must not kill the process with SIGPIPE. *)
let test_tcp_closed_peer_is_a_send_failure () =
  let base_port = Tcp_transport.local_base_port ~slot:6 in
  let hub = string_hub ~seed:40 ~base_port in
  let tr = Tcp_transport.transport hub in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + 1));
  Unix.listen listener 1;
  tr.send ~src:0 ~dst:1 ~size:0 "a";
  Tcp_transport.poll hub ~timeout:0.;
  let peer, _ = Unix.accept listener in
  (* read the frame first: closing with unread bytes would reset the
     connection at once, and the reset alone raises no signal *)
  ignore (Unix.read peer (Bytes.create 64) 0 64 : int);
  Unix.close peer;
  (* each send is past the soft limit, so it is written at once, with
     no poll to read the EOF first *)
  let big = String.make (300 * 1024) 'x' in
  let sent = ref 0 in
  while Tcp_transport.send_failures hub = 0 && !sent < 10 do
    tr.send ~src:0 ~dst:1 ~size:0 big;
    incr sent
  done;
  Tcp_transport.shutdown hub;
  Unix.close listener;
  Alcotest.(check int) "one send failure" 1 (Tcp_transport.send_failures hub)

(* Handlers for addresses 0 and 1 that record each short message they
   receive as (src, message) and answer a "req" with a "rep" on the same
   pair; longer messages are dropped unrecorded. *)
let echo_pair hub =
  let tr = Tcp_transport.transport hub in
  let got = Array.make 2 [] in
  List.iter
    (fun a ->
      tr.register a (fun ~src ~size:_ m ->
          if String.length m < 16 then begin
            got.(a) <- (src, m) :: got.(a);
            if String.starts_with ~prefix:"req" m then
              tr.send ~src:a ~dst:src ~size:0
                ("rep" ^ String.sub m 3 (String.length m - 3))
          end))
    [ 0; 1 ];
  (tr, got)

let poll_until hub cond =
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Tcp_transport.poll hub ~timeout:0.01
  done;
  cond ()

(* Replies ride the connection their request came in on: after requests
   and replies both ways between two local addresses the hub holds one
   connection, two ends; a socket per direction would be four. *)
let test_tcp_one_connection_per_pair () =
  let base_port = Tcp_transport.local_base_port ~slot:7 in
  let hub = string_hub ~seed:37 ~base_port in
  let tr, got = echo_pair hub in
  tr.send ~src:0 ~dst:1 ~size:0 "req-a";
  tr.send ~src:1 ~dst:0 ~size:0 "req-b";
  let ok = poll_until hub (fun () -> List.length got.(0) = 2 && List.length got.(1) = 2) in
  let ends = Tcp_transport.connections hub in
  Tcp_transport.shutdown hub;
  Alcotest.(check bool) "both requests answered" true ok;
  Alcotest.(check (list (pair int string)))
    "address 0 received" [ (1, "rep-a"); (1, "req-b") ]
    (List.sort compare got.(0));
  Alcotest.(check (list (pair int string)))
    "address 1 received" [ (0, "rep-b"); (0, "req-a") ]
    (List.sort compare got.(1));
  Alcotest.(check int) "one connection, two ends" 2 ends

(* A foreign peer's connection only delivers to the address it dialled:
   its frames reach address 0, while a hub send to 0 travels on the
   hub's own pair, never on the foreign socket. *)
let test_tcp_foreign_peer_one_sided () =
  let base_port = Tcp_transport.local_base_port ~slot:8 in
  let hub = string_hub ~seed:38 ~base_port in
  let tr, got = echo_pair hub in
  Tcp_transport.poll hub ~timeout:0.01;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port));
  let body = "hello" in
  let msg = Bytes.create (8 + String.length body) in
  Bytes.set_int32_be msg 0 (Int32.of_int (4 + String.length body));
  Bytes.set_int32_be msg 4 7l (* claimed source address *);
  Bytes.blit_string body 0 msg 8 (String.length body);
  ignore (Unix.write sock msg 0 (Bytes.length msg) : int);
  let foreign_arrived = poll_until hub (fun () -> List.mem (7, "hello") got.(0)) in
  tr.send ~src:1 ~dst:0 ~size:0 "req-c";
  let pair_works = poll_until hub (fun () -> List.mem (0, "rep-c") got.(1)) in
  let ends = Tcp_transport.connections hub in
  let foreign_quiet =
    match Unix.select [ sock ] [] [] 0.05 with [], _, _ -> true | _ -> false
  in
  Unix.close sock;
  Tcp_transport.shutdown hub;
  Alcotest.(check bool) "the foreign frame reached address 0" true foreign_arrived;
  Alcotest.(check bool) "1 -> 0 request answered" true pair_works;
  Alcotest.(check (list (pair int string)))
    "address 0 received" [ (1, "req-c"); (7, "hello") ]
    (List.sort compare got.(0));
  Alcotest.(check bool) "nothing was sent on the foreign socket" true foreign_quiet;
  Alcotest.(check int) "the foreign end plus one pair" 3 ends

(* A dropped connection is replaced on the next send.  Address 0 floods
   1 without polling until its cork overflows and the hub drops the end;
   1's end then reads EOF, and afterwards requests and replies flow both
   ways over a new pair. *)
let test_tcp_reconnect_after_drop () =
  let base_port = Tcp_transport.local_base_port ~slot:9 in
  let hub = string_hub ~seed:39 ~base_port in
  let tr, got = echo_pair hub in
  tr.send ~src:0 ~dst:1 ~size:0 "req-1";
  Alcotest.(check bool) "first exchange" true
    (poll_until hub (fun () -> List.mem (1, "rep-1") got.(0)));
  let flood = String.make (1 lsl 20) 'x' in
  let sent = ref 0 in
  while Tcp_transport.send_failures hub = 0 && !sent < 1_000 do
    tr.send ~src:0 ~dst:1 ~size:0 flood;
    incr sent
  done;
  Alcotest.(check int) "the flooded end was dropped" 1 (Tcp_transport.send_failures hub);
  Alcotest.(check bool) "the other end closes at EOF" true
    (poll_until hub (fun () -> Tcp_transport.connections hub = 0));
  tr.send ~src:0 ~dst:1 ~size:0 "req-2";
  tr.send ~src:1 ~dst:0 ~size:0 "req-3";
  let ok =
    poll_until hub (fun () ->
        List.mem (1, "rep-2") got.(0) && List.mem (0, "rep-3") got.(1))
  in
  let ends = Tcp_transport.connections hub in
  Tcp_transport.shutdown hub;
  Alcotest.(check bool) "requests and replies flow both ways again" true ok;
  Alcotest.(check int) "one new connection, two ends" 2 ends;
  Alcotest.(check int) "no further failures" 1 (Tcp_transport.send_failures hub)

(* A poll carries a frame's consequences through the hub.  With the
   modelled CPU costs at zero, a client write on a follower needs six
   deliveries (request, [Forward], [Propose], [Ack], [Commit], reply),
   and one poll carries all of them, with no simulator event in between.
   One more poll is allowed for a delivery the kernel defers; a poll
   that read once and returned took six. *)
let test_tcp_forwarded_write_one_poll () =
  let sim, hub, _, client =
    zero_cost_deployment ~seed:41 ~base_port:(Tcp_transport.local_base_port ~slot:10)
  in
  let events = Sim.executed_events sim in
  let write =
    Zk.Client.request_async client
      (P.Set_data { path = "/k"; data = "1"; expected_version = None })
  in
  let polls = ref 0 in
  while (not (Proc.is_fulfilled write)) && !polls < 20 do
    Tcp_transport.poll hub ~timeout:0.01;
    incr polls
  done;
  Tcp_transport.shutdown hub;
  (match Proc.value_opt write with
  | Some (P.Set _) -> ()
  | _ -> Alcotest.failf "the write was not acknowledged in %d polls" !polls);
  Alcotest.(check int) "no event ran" events (Sim.executed_events sim);
  if !polls > 2 then
    Alcotest.failf "the write took %d polls, want 1 (2 if the kernel defers)" !polls

(* Two addresses that answer every frame never let the hub go quiet; a
   poll still returns after at most 16 reads, its cap, one frame per
   read here.  The pair stops after [limit] frames, so a poll without
   a cap returns too, and fails the bound. *)
let test_tcp_never_quiet_poll_is_capped () =
  let sim = Sim.create ~seed:42 () in
  let base_port = Tcp_transport.local_base_port ~slot:11 in
  let hub =
    Tcp_transport.create ~sim ~base_port ~encode:Fun.id
      ~decode:(fun s ~pos ~len -> Ok (String.sub s pos len))
      ()
  in
  let tr = Tcp_transport.transport hub in
  let limit = 10_000 and received = ref 0 in
  List.iter
    (fun a ->
      tr.register a (fun ~src ~size:_ m ->
          incr received;
          if !received < limit then tr.send ~src:a ~dst:src ~size:0 m))
    [ 0; 1 ];
  let fired = ref false in
  Sim.schedule sim ~after:Sim_time.zero (fun () -> fired := true);
  tr.send ~src:0 ~dst:1 ~size:0 "ball";
  Tcp_transport.poll hub ~timeout:0.01;
  let first = !received in
  let fired_in_poll = !fired in
  Sim.run sim ~until:(Sim.now sim);
  let fired_after_run = !fired in
  let resumed = poll_until hub (fun () -> !received > first) in
  Tcp_transport.shutdown hub;
  if first < 1 || first > 16 then
    Alcotest.failf "one poll dispatched %d frames, want 1..16" first;
  Alcotest.(check bool) "the scheduled event waits for Sim.run" false fired_in_poll;
  Alcotest.(check bool) "the next Sim.run runs it" true fired_after_run;
  Alcotest.(check bool) "the exchange resumes on the next poll" true resumed

(* A send on a linked pair allocates no tuple key: [links] is keyed by
   one int.  Only [Hashtbl.find_opt]'s option remains. *)
let test_tcp_send_allocates_little () =
  let base_port = Tcp_transport.local_base_port ~slot:12 in
  let hub = string_hub ~seed:43 ~base_port in
  let tr, got = echo_pair hub in
  tr.send ~src:0 ~dst:1 ~size:0 "req-a";
  Alcotest.(check bool) "the pair is linked" true
    (poll_until hub (fun () -> List.mem (1, "rep-a") got.(0)));
  let body = String.make 64 'x' and sends = 1000 in
  (* a first burst grows the cork to its size *)
  for _ = 1 to sends do
    tr.send ~src:0 ~dst:1 ~size:0 body
  done;
  Tcp_transport.poll hub ~timeout:0.;
  let w0 = Gc.minor_words () in
  for _ = 1 to sends do
    tr.send ~src:0 ~dst:1 ~size:0 body
  done;
  let per_send = (Gc.minor_words () -. w0) /. float_of_int sends in
  Tcp_transport.poll hub ~timeout:0.;
  Tcp_transport.shutdown hub;
  Alcotest.(check int) "no send failed" 0 (Tcp_transport.send_failures hub);
  (* a tuple key took 5 words: the tuple and the option *)
  if per_send > 2. then Alcotest.failf "a send allocates %.1f words, want <= 2" per_send

(* A poll reads the in-hub ends it writes to without a select, and
   selects once.  The forwarded write of
   [test_tcp_forwarded_write_one_poll] takes its deliveries in one poll,
   and that poll calls [select] once; a poll that selected every round
   called it seven times. *)
let test_tcp_forwarded_write_selects_once () =
  let sim, hub, _, client =
    zero_cost_deployment ~seed:44 ~base_port:(Tcp_transport.local_base_port ~slot:13)
  in
  let events = Sim.executed_events sim in
  let selects = Tcp_transport.selects hub in
  let write =
    Zk.Client.request_async client
      (P.Set_data { path = "/k"; data = "1"; expected_version = None })
  in
  Tcp_transport.poll hub ~timeout:0.01;
  let acked = Proc.is_fulfilled write in
  let selected = Tcp_transport.selects hub - selects in
  Tcp_transport.shutdown hub;
  Alcotest.(check bool) "the write is acknowledged in one poll" true acked;
  Alcotest.(check int) "no event ran" events (Sim.executed_events sim);
  Alcotest.(check int) "that poll selected once" 1 selected

(* The poll's select still sees what no hub write brings: a
   foreign peer's frame, and the EOF of an in-hub end whose mate the hub
   dropped.  Address 0 floods 1 without polling until its cork
   overflows and the hub drops 0's end; a foreign peer sends address 0 a
   frame; polls then deliver the frame and close 1's end at EOF. *)
let test_tcp_select_sees_foreign_and_eof () =
  let base_port = Tcp_transport.local_base_port ~slot:14 in
  let hub = string_hub ~seed:45 ~base_port in
  let tr, got = echo_pair hub in
  tr.send ~src:0 ~dst:1 ~size:0 "req-1";
  Alcotest.(check bool) "first exchange" true
    (poll_until hub (fun () -> List.mem (1, "rep-1") got.(0)));
  let flood = String.make (1 lsl 20) 'x' in
  let sent = ref 0 in
  while Tcp_transport.send_failures hub = 0 && !sent < 1_000 do
    tr.send ~src:0 ~dst:1 ~size:0 flood;
    incr sent
  done;
  Alcotest.(check int) "the flooded end was dropped" 1 (Tcp_transport.send_failures hub);
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port));
  let body = "hello" in
  let msg = Bytes.create (8 + String.length body) in
  Bytes.set_int32_be msg 0 (Int32.of_int (4 + String.length body));
  Bytes.set_int32_be msg 4 7l (* claimed source address *);
  Bytes.blit_string body 0 msg 8 (String.length body);
  ignore (Unix.write sock msg 0 (Bytes.length msg) : int);
  let polls = ref 0 and selects = Tcp_transport.selects hub in
  let both () =
    List.mem (7, "hello") got.(0) && Tcp_transport.connections hub = 1
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (both ())) && Unix.gettimeofday () < deadline do
    Tcp_transport.poll hub ~timeout:0.01;
    incr polls
  done;
  let ok = both () and selected = Tcp_transport.selects hub - selects in
  Unix.close sock;
  Tcp_transport.shutdown hub;
  Alcotest.(check bool) "the foreign frame arrived and 1's end closed at EOF"
    true ok;
  Alcotest.(check int) "one select per poll" !polls selected

(* A frame longer than the 64 KiB read chunk between two in-hub
   addresses: a read that fills the chunk gives its end another turn,
   so one poll completes the frame.  A poll that read one chunk per end
   and stopped at a round with no frame would leave it unfinished. *)
let test_tcp_large_frame_one_poll () =
  let base_port = Tcp_transport.local_base_port ~slot:15 in
  let hub = string_hub ~seed:46 ~base_port in
  let tr = Tcp_transport.transport hub in
  let sizes = ref [] in
  List.iter
    (fun a -> tr.register a (fun ~src:_ ~size:_ m -> sizes := String.length m :: !sizes))
    [ 0; 1 ];
  tr.send ~src:0 ~dst:1 ~size:0 "hi";
  Alcotest.(check bool) "the pair is linked" true (poll_until hub (fun () -> !sizes = [ 2 ]));
  let big = 100 * 1024 in
  tr.send ~src:0 ~dst:1 ~size:0 (String.make big 'x');
  Tcp_transport.poll hub ~timeout:0.01;
  let got = !sizes in
  Tcp_transport.shutdown hub;
  Alcotest.(check (list int)) "the large frame arrived in one poll" [ big; 2 ] got

(* Depth-first delivery: a poll takes each frame straight to its reader,
   so a forwarded write's quorum path (request, [Forward], then
   [Propose], [Ack] and [Commit] with replica 1, then the reply) runs
   back to back.  Replica 2, which the quorum does not need, gets its
   [Propose] and [Commit] in one write after the reply, and its [Ack]
   comes last: 8 writes in the poll that acknowledges the write.  A poll
   in lockstep rounds wrote to both followers in the same round, made 9
   writes, and dispatched replica 2's [Propose] before the reply, every
   time.  A delivery the kernel defers (a read that finds the bytes not
   there yet) cuts a chain short and lets the rest run in another
   order, so the write is made up to three times, each left to finish
   before the next, and one must show this poll. *)
let test_tcp_forwarded_write_depth_first () =
  let log = ref [] in
  let record addr (m : Zk.Server.wire) =
    let what =
      match m with
      | Zk.Server.Client_msg _ -> "request"
      | Zk.Server.Forward _ -> "forward"
      | Zk.Server.Zab_msg (Zab.Propose _) -> "propose"
      | Zk.Server.Zab_msg (Zab.Ack _) -> "ack"
      | Zk.Server.Zab_msg (Zab.Commit _) -> "commit"
      | Zk.Server.Server_msg (P.Reply _) -> "reply"
      | _ -> "other"
    in
    log := (addr, what) :: !log
  in
  let _, hub, _, client =
    logged_deployment ~log:record ~seed:47
      ~base_port:(Tcp_transport.local_base_port ~slot:16)
  in
  let expected =
    [
      (1, "request");
      (0, "forward");
      (1, "propose");
      (0, "ack");
      (1, "commit");
      (100, "reply");
      (2, "propose");
      (2, "commit");
      (0, "ack");
    ]
  in
  let rec attempt n =
    log := [];
    let writes = Tcp_transport.writes hub in
    let write =
      Zk.Client.request_async client
        (P.Set_data { path = "/k"; data = string_of_int n; expected_version = None })
    in
    Tcp_transport.poll hub ~timeout:0.01;
    let acked = Proc.is_fulfilled write
    and seen = List.rev !log
    and wrote = Tcp_transport.writes hub - writes in
    let polls = ref 0 in
    while
      ((not (Proc.is_fulfilled write)) || List.length !log < List.length expected)
      && !polls < 10
    do
      Tcp_transport.poll hub ~timeout:0.01;
      incr polls
    done;
    if (acked && seen = expected && wrote = 8) || n = 3 then (acked, seen, wrote)
    else attempt (n + 1)
  in
  let acked, seen, wrote = attempt 1 in
  Tcp_transport.shutdown hub;
  Alcotest.(check bool) "the write is acknowledged in one poll" true acked;
  Alcotest.(check (list (pair int string)))
    "dispatches: the quorum path, the reply, then replica 2 from one read"
    expected seen;
  Alcotest.(check int) "writes in that poll" 8 wrote

(* Bytes that a handler's oversized cork writes inline, in the middle of
   its turn, still reach their reader in the same poll.  Address 1
   answers "go" with three 100 KiB frames: the third takes the cork past
   its 256 KiB soft limit, which writes all three at once, and leaves
   nothing for the end of the turn to write. *)
let test_tcp_inline_flush_read_in_poll () =
  let base_port = Tcp_transport.local_base_port ~slot:17 in
  let hub = string_hub ~seed:48 ~base_port in
  let tr = Tcp_transport.transport hub in
  let big = 100 * 1024 in
  let sizes = ref [] in
  tr.register 0 (fun ~src:_ ~size:_ m -> sizes := String.length m :: !sizes);
  tr.register 1 (fun ~src ~size:_ m ->
      if m = "go" then
        for _ = 1 to 3 do
          tr.send ~src:1 ~dst:src ~size:0 (String.make big 'x')
        done);
  tr.send ~src:1 ~dst:0 ~size:0 "hi";
  Alcotest.(check bool) "the pair is linked" true (poll_until hub (fun () -> !sizes = [ 2 ]));
  let sent = Tcp_transport.bytes_sent hub in
  tr.send ~src:0 ~dst:1 ~size:0 "go";
  Tcp_transport.poll hub ~timeout:0.01;
  let got = !sizes and wrote = Tcp_transport.bytes_sent hub - sent in
  Tcp_transport.shutdown hub;
  Alcotest.(check int) "every byte was written in the poll" (8 + 2 + (3 * (8 + big))) wrote;
  Alcotest.(check (list int)) "every frame was dispatched in the same poll"
    [ big; big; big; 2 ] got

(* An exchange that never goes quiet does not starve the other ends.
   Its chain stops at the poll's cap of 16 reads, but an end's first
   read in a poll is taken past the cap.  Addresses 0 and 1 answer
   every frame; behind their ball, in the same turn, 2 sends 3 a frame,
   and a foreign peer has sent 2 one.  Both arrive within two polls
   (three if the kernel defers a delivery).  A poll whose reads all
   stopped at the cap left both waiting for as long as the ball rolled. *)
let test_tcp_never_quiet_does_not_starve () =
  let base_port = Tcp_transport.local_base_port ~slot:18 in
  let hub = string_hub ~seed:49 ~base_port in
  let tr = Tcp_transport.transport hub in
  let got = Array.make 4 [] in
  List.iter
    (fun a ->
      tr.register a (fun ~src ~size:_ m ->
          got.(a) <- (src, m) :: got.(a);
          if a < 2 then tr.send ~src:a ~dst:src ~size:0 m))
    [ 0; 1; 2; 3 ];
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + 2));
  let body = "foreign" in
  let msg = Bytes.create (8 + String.length body) in
  Bytes.set_int32_be msg 0 (Int32.of_int (4 + String.length body));
  Bytes.set_int32_be msg 4 7l (* claimed source address *);
  Bytes.blit_string body 0 msg 8 (String.length body);
  ignore (Unix.write sock msg 0 (Bytes.length msg) : int);
  tr.send ~src:0 ~dst:1 ~size:0 "ball";
  tr.send ~src:2 ~dst:3 ~size:0 "in-hub";
  let both () = List.mem (2, "in-hub") got.(3) && List.mem (7, "foreign") got.(2) in
  let polls = ref 0 in
  while (not (both ())) && !polls < 3 do
    Tcp_transport.poll hub ~timeout:0.01;
    incr polls
  done;
  let ok = both () and rolled = List.length got.(0) + List.length got.(1) in
  Unix.close sock;
  Tcp_transport.shutdown hub;
  Alcotest.(check bool) "both frames arrived within three polls" true ok;
  if rolled < 16 then
    Alcotest.failf "the ball was dispatched %d times, want >= 16 (the cap reached)" rolled

(* ------------------------------------------------------------------ *)
(* 2PC frames (§6j)                                                   *)
(* ------------------------------------------------------------------ *)

let twopc_wop_gen =
  let open QCheck.Gen in
  let path =
    map
      (fun comps -> "/" ^ String.concat "/" comps)
      (list_size (int_range 1 3)
         (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)))
  in
  let data = string_size ~gen:(char_range '\000' '\255') (int_range 0 24) in
  oneof
    [
      map2 (fun p d -> Two_pc.Wcreate { path = p; data = d }) path data;
      map2 (fun p d -> Two_pc.Wset { path = p; data = d }) path data;
      map (fun p -> Two_pc.Wdelete { path = p }) path;
    ]

(* the wop streaming writer feeds the snapshot blob's prepared-txn
   section: its bytes are the documented frame layout (tag, path[, data]),
   and the streaming reader inverts it *)
let prop_twopc_wop_stream_identity =
  QCheck.Test.make ~name:"2pc wop streaming writer byte-identical, reads back"
    ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Two_pc.pp_wop) twopc_wop_gen)
    (fun op ->
      let stream = Wire.Writer.with_writer (fun w -> Two_pc.write_wop w op) in
      let layout =
        match op with
        | Two_pc.Wcreate { path; data } ->
            Wire.List [ Int 0; Str path; Str data ]
        | Two_pc.Wset { path; data } -> Wire.List [ Int 1; Str path; Str data ]
        | Two_pc.Wdelete { path } -> Wire.List [ Int 2; Str path ]
      in
      String.equal stream (Wire.encode layout)
      && Wire.Reader.run stream Two_pc.read_wop = Ok op)

let twopc_frame_arb =
  let open QCheck.Gen in
  let txid =
    map3
      (fun s e c -> Printf.sprintf "s%d.e%d.%d" s e c)
      (int_range 0 15) (int_range 0 9) (int_range 0 999)
  in
  let wop = twopc_wop_gen in
  let frame =
    oneof
      [
        (let* t = txid in
         let* coord = int_range 0 15 in
         let* participants = list_size (int_range 1 4) (int_range 0 15) in
         let* ops = list_size (int_range 0 5) wop in
         return (Two_pc.Prepare { txid = t; coord; participants; ops }));
        map3
          (fun t shard ok -> Two_pc.Prepare_ack { txid = t; shard; ok })
          txid (int_range 0 15) bool;
        map (fun t -> Two_pc.Commit { txid = t }) txid;
        map (fun t -> Two_pc.Abort { txid = t }) txid;
        map2
          (fun t s -> Two_pc.Status { txid = t; from_shard = s })
          txid (int_range 0 15);
      ]
  in
  QCheck.make
    ~print:(fun f -> Format.asprintf "%a" Two_pc.pp_frame f)
    frame

let twopc_encode f = Wire.Writer.with_writer (fun w -> Two_pc.write_frame w f)
let twopc_decode s = Wire.Reader.run s Two_pc.read_frame

let prop_twopc_roundtrip =
  QCheck.Test.make ~name:"2pc frames roundtrip" ~count:500 twopc_frame_arb
    (fun f -> twopc_decode (twopc_encode f) = Ok f)

let prop_twopc_size =
  QCheck.Test.make ~name:"2pc frame_size bounds payload" ~count:500
    twopc_frame_arb (fun f -> Two_pc.frame_size f > 0)

(* truncation at EVERY byte offset must be a clean [Error] *)
let prop_twopc_truncation =
  QCheck.Test.make ~name:"2pc frame truncations all rejected" ~count:200
    twopc_frame_arb (fun f ->
      let s = twopc_encode f in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        match twopc_decode (String.sub s 0 k) with
        | Error _ -> ()
        | Ok _ -> ok := false
      done;
      !ok)

let prop_twopc_garbage =
  QCheck.Test.make ~name:"2pc decoder total on garbage" ~count:1000
    QCheck.(string_gen QCheck.Gen.(char_range '\000' '\255'))
    (fun s -> match twopc_decode s with Ok _ | Error _ -> true)

(* random well-formed wire trees that are NOT 2pc frames must be refused
   without raising *)
let prop_twopc_wrong_shape =
  QCheck.Test.make ~name:"2pc decoder refuses foreign wire trees" ~count:500
    wire_arb (fun w ->
      match twopc_decode (Wire.encode w) with Ok _ | Error _ -> true)

let test_twopc_crafted_malformed () =
  let reject name s =
    match twopc_decode s with
    | Error _ -> ()
    | Ok f ->
        Alcotest.failf "%s decoded to %s" name
          (Format.asprintf "%a" Two_pc.pp_frame f)
  in
  (* non-minimal varint inside an otherwise valid frame: re-spell the
     leading length byte of the encoded frame as a 2-byte varint *)
  let s = twopc_encode (Two_pc.Commit { txid = "s0.e1.2" }) in
  (match Wire.decode s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid commit frame rejected: %s" e);
  let n = Char.code s.[1] in
  if n < 0x80 then
    reject "non-minimal frame length varint"
      (String.make 1 s.[0]
      ^ String.make 1 (Char.chr (0x80 lor n))
      ^ "\x00"
      ^ String.sub s 2 (String.length s - 2));
  (* truncated mid-frame and pure garbage *)
  reject "truncated commit" (String.sub s 0 (String.length s - 1));
  reject "garbage" "\xde\xad\xbe\xef";
  (* structurally valid wire, wrong arity / tag *)
  reject "unknown frame tag"
    (Wire.encode (Wire.List [ Wire.Int 99; Wire.Str "t" ]));
  reject "prepare with non-list ops"
    (Wire.encode
       (Wire.List [ Wire.Int 0; Wire.Str "t"; Wire.Int 1; Wire.Int 2 ]))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "edc_wire"
    [
      ( "codec",
        [
          qc prop_wire_roundtrip;
          qc prop_wire_size;
          qc prop_wire_truncation;
          qc prop_wire_garbage;
          qc prop_wire_bitflip;
          Alcotest.test_case "crafted bombs rejected" `Quick test_wire_crafted_bombs;
          Alcotest.test_case "encode rejects over-deep trees" `Quick
            test_wire_encode_rejects_overdeep;
        ] );
      ( "messages",
        [
          Alcotest.test_case "zab messages roundtrip" `Quick test_zab_msg_roundtrip;
          qc prop_lease_frames_roundtrip;
          qc prop_lease_frames_truncation;
          qc prop_zab_decoder_garbage;
          Alcotest.test_case "malformed lease/observer frames rejected" `Quick
            test_lease_frames_malformed;
          Alcotest.test_case "pbft messages roundtrip" `Quick test_pbft_msg_roundtrip;
          Alcotest.test_case "protocol ops/results/txns roundtrip" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "server wire roundtrip" `Quick test_server_wire_roundtrip;
        ] );
      ( "streaming",
        [
          qc prop_writer_byte_identity;
          qc prop_reader_differential_valid;
          qc prop_reader_differential_truncation;
          qc prop_reader_differential_garbage;
          qc prop_reader_differential_bitflip;
          Alcotest.test_case "reader errors carry byte offsets" `Quick
            test_reader_errors_carry_offsets;
          Alcotest.test_case "writer rejects over-deep trees" `Quick
            test_writer_rejects_overdeep;
          Alcotest.test_case "readers reject non-canonical fast-path widths"
            `Quick test_readers_reject_noncanonical_fast_widths;
          Alcotest.test_case "golden bytes pin every message shape" `Quick
            test_golden_bytes;
          Alcotest.test_case "every shape reader accepts only canonical bytes"
            `Quick test_readers_canonical;
          Alcotest.test_case "canonicality check catches a lax reader" `Quick
            test_canonicality_catches_lax_reader;
          Alcotest.test_case "decode_sub reads frames out of a padded buffer"
            `Quick test_decode_sub_slice;
          Alcotest.test_case "a reply decodes and encodes with no scratch"
            `Quick test_codec_allocates_no_scratch;
          Alcotest.test_case "outbuf survives short writes and stalls" `Quick
            test_outbuf_short_writes;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "corrupt blobs rejected, state untouched" `Quick
            test_snapshot_corrupt_blob_rejected;
          Alcotest.test_case "rejecting follower re-requests" `Quick
            test_follower_rerequests_on_reject;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "3-replica counter workload over TCP" `Quick
            test_tcp_counter_workload;
          Alcotest.test_case "garbage frames dropped, not fatal" `Quick
            test_tcp_garbage_is_dropped;
          Alcotest.test_case "pipelined writes group-commit per turn" `Quick
            test_tcp_pipelined_group_commit;
          Alcotest.test_case "stalled reader: cork bounded, conn dropped"
            `Quick test_tcp_stalled_reader_bounded;
          Alcotest.test_case "zero-cost server work runs in the poll's turn"
            `Quick test_tcp_zero_cost_same_turn;
          Alcotest.test_case "an idle poll allocates no lists" `Quick
            test_tcp_idle_poll_allocates_little;
          Alcotest.test_case "one two-way connection per address pair" `Quick
            test_tcp_one_connection_per_pair;
          Alcotest.test_case "a foreign peer's connection is one-sided" `Quick
            test_tcp_foreign_peer_one_sided;
          Alcotest.test_case "a dropped connection reconnects both ways" `Quick
            test_tcp_reconnect_after_drop;
          Alcotest.test_case "a closed peer is a send failure, not SIGPIPE"
            `Quick test_tcp_closed_peer_is_a_send_failure;
          Alcotest.test_case "a forwarded write is acknowledged in one poll"
            `Quick test_tcp_forwarded_write_one_poll;
          Alcotest.test_case "a never-quiet exchange cannot hold a poll" `Quick
            test_tcp_never_quiet_poll_is_capped;
          Alcotest.test_case "a send allocates no tuple key" `Quick
            test_tcp_send_allocates_little;
          Alcotest.test_case "a forwarded write selects once" `Quick
            test_tcp_forwarded_write_selects_once;
          Alcotest.test_case "a foreign peer and an in-hub EOF are still seen"
            `Quick test_tcp_select_sees_foreign_and_eof;
          Alcotest.test_case
            "a frame over 64 KiB between in-hub peers arrives in one poll"
            `Quick test_tcp_large_frame_one_poll;
          Alcotest.test_case "a forwarded write's quorum path runs first"
            `Quick test_tcp_forwarded_write_depth_first;
          Alcotest.test_case "bytes a cork writes inline are read in the poll"
            `Quick test_tcp_inline_flush_read_in_poll;
          Alcotest.test_case "a never-quiet exchange starves no other end"
            `Quick test_tcp_never_quiet_does_not_starve;
        ] );
      ( "2pc",
        [
          qc prop_twopc_wop_stream_identity;
          qc prop_twopc_roundtrip;
          qc prop_twopc_size;
          qc prop_twopc_truncation;
          qc prop_twopc_garbage;
          qc prop_twopc_wrong_shape;
          Alcotest.test_case "crafted malformed 2pc frames rejected" `Quick
            test_twopc_crafted_malformed;
        ] );
    ]
