(** Deployment assembly: a simulated ZooKeeper ensemble plus clients.

    As in the paper's evaluation: [2f + 1] server replicas (three for
    [f = 1]), each client connected to one replica, with connections spread
    round-robin to balance load. *)

open Edc_simnet

type t = {
  sim : Sim.t;
  net : Server.wire Net.t;  (** failure injection and byte accounting *)
  transport : Server.wire Transport.t;  (** the message plane servers see *)
  mutable servers : Server.t array;  (** grows via {!add_server}; ids = index *)
  server_config : Server.config option;
  zab_config : Edc_replication.Zab.config option;
      (** reused by late joiners *)
  mutable next_client_addr : int;
  mutable next_replica : int;
}

let client_addr_base = 1000

let create ?(n_replicas = 3) ?net_config ?server_config ?zab_config sim =
  let net = Net.create ?config:net_config sim in
  let replica_ids = List.init n_replicas Fun.id in
  let transport = Transport.of_net net in
  let servers =
    Array.init n_replicas (fun id ->
        Server.create ?config:server_config ?zab_config ~sim ~net:transport
          ~id ~replica_ids ~initial_leader:0 ())
  in
  Array.iter Server.start servers;
  {
    sim;
    net;
    transport;
    servers;
    server_config;
    zab_config;
    next_client_addr = client_addr_base;
    next_replica = 0;
  }

let sim t = t.sim
let net t = t.net
let servers t = t.servers
let n_replicas t = Array.length t.servers

let leader_id t =
  let rec find i =
    if i >= Array.length t.servers then None
    else if Server.is_leader t.servers.(i) then Some i
    else find (i + 1)
  in
  find 0

let leader t = Option.map (fun i -> t.servers.(i)) (leader_id t)

(** [client t ()] allocates a client endpoint attached round-robin to a
    replica.  The session is established by calling {!Client.connect} from
    a fiber. *)
let client ?config ?replica t () =
  let addr = t.next_client_addr in
  t.next_client_addr <- t.next_client_addr + 1;
  let replica =
    match replica with
    | Some r -> r
    | None ->
        let r = t.next_replica in
        t.next_replica <- (t.next_replica + 1) mod Array.length t.servers;
        r
  in
  Client.create ?config ~sim:t.sim ~net:t.transport ~addr ~replica ()

(** [connected_client t ()] spawns nothing: call from within a fiber; it
    allocates and connects in one step. *)
let connected_client ?config ?replica t () =
  let c = client ?config ?replica t () in
  Client.connect c;
  c

(** [add_server t] grows the ensemble at runtime: a fresh replica boots as
    a non-voting learner on the same message plane, announces itself to
    the leader, bootstraps via snapshot + log sync, and is admitted to the
    member set through the joint-consensus log path once caught up.
    Returns the new replica's id. *)
let add_server t =
  let id = Array.length t.servers in
  (* the learner's peer list is the current ensemble; its own vote arrives
     only through a committed config *)
  let replica_ids = List.init (id + 1) Fun.id in
  let s =
    Server.create ?config:t.server_config ?zab_config:t.zab_config
      ~learner:true ~sim:t.sim ~net:t.transport ~id ~replica_ids ()
  in
  t.servers <- Array.append t.servers [| s |];
  Server.start s;
  id

(** [add_observer t] attaches a permanent non-voting observer replica: it
    announces itself to the leader, bootstraps via snapshot + log sync,
    consumes the commit stream forever, and serves sequentially-consistent
    local reads — but never appears in any quorum or election.  Returns
    the new replica's id. *)
let add_observer t =
  let id = Array.length t.servers in
  let replica_ids = List.init (id + 1) Fun.id in
  let s =
    Server.create ?config:t.server_config ?zab_config:t.zab_config
      ~observer:true ~sim:t.sim ~net:t.transport ~id ~replica_ids ()
  in
  t.servers <- Array.append t.servers [| s |];
  Server.start s;
  id

(** [remove_server t ~id] asks the current leader to start the
    joint-consensus removal of replica [id]; the replica is fenced once
    the final config commits (it stays on the wire plane, refusing reads,
    until the caller crashes it). *)
let remove_server t ~id =
  match leader t with
  | None -> Error "no leader to drive the removal"
  | Some l -> Edc_replication.Zab.remove_server (Server.zab l) ~id

(** [crash_server t i] fails replica [i] (process + network). *)
let crash_server t i =
  Server.crash t.servers.(i);
  Net.set_node_down t.net i

let restart_server t i =
  Net.set_node_up t.net i;
  Server.restart t.servers.(i)

(** [nemesis_target ~name ?restart t] binds the fault injector to this
    ensemble.  Every closure re-reads the server array, which grows via
    {!add_server}; [restart] defaults to {!restart_server}. *)
let nemesis_target ~name ?restart t =
  let net = t.net in
  {
    Nemesis.name;
    nodes = List.init (Array.length t.servers) Fun.id;
    leader = (fun () -> leader_id t);
    crash = crash_server t;
    restart = Option.value restart ~default:(restart_server t);
    cut = Net.cut_link net;
    heal = Net.heal_link net;
    cut_one_way = (fun ~src ~dst -> Net.cut_link_one_way net ~src ~dst);
    heal_one_way = (fun ~src ~dst -> Net.heal_link_one_way net ~src ~dst);
    silence = Net.set_node_down net;
    unsilence = Net.set_node_up net;
    reconfig_in_flight =
      (fun () ->
        (* arm from the moment a learner is adopted (bootstrap counts as
           "change underway") until the final config entry commits; a
           fenced replica's stale joint view does not count *)
        Array.exists
          (fun s ->
            let z = Server.zab s in
            (not (Edc_replication.Zab.is_fenced z))
            && (Edc_replication.Zab.reconfig_in_flight z
               || Edc_replication.Zab.learners z <> []))
          t.servers);
    set_skew =
      (fun node skew ->
        if node < Array.length t.servers then
          Edc_replication.Zab.set_clock_skew
            (Server.zab t.servers.(node))
            skew);
  }

(** [run_until_quiet t ~timeout] drains the simulation up to a horizon. *)
let run_for t d = Sim.run ~until:(Sim_time.add (Sim.now t.sim) d) t.sim
