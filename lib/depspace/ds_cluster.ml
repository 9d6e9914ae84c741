(** Deployment assembly: a simulated DepSpace ensemble plus clients.

    [3f + 1] replicas (four for the paper's [f = 1] configuration); every
    client talks to all replicas. *)

open Edc_simnet

type t = {
  sim : Sim.t;
  net : Ds_protocol.wire Net.t;
  servers : Ds_server.t array;
  f : int;
  mutable next_client_addr : int;
}

let client_addr_base = 1000

let create ?(f = 1) ?net_config ?server_config ?pbft_config sim =
  let n = (3 * f) + 1 in
  let net = Net.create ?config:net_config sim in
  let replica_ids = List.init n Fun.id in
  let servers =
    Array.init n (fun id ->
        Ds_server.create ?config:server_config ?pbft_config ~sim ~net ~id
          ~replica_ids ~f ())
  in
  Array.iter Ds_server.start servers;
  { sim; net; servers; f; next_client_addr = client_addr_base }

let sim t = t.sim
let net t = t.net
let servers t = t.servers
let f t = t.f

let client ?config t () =
  let addr = t.next_client_addr in
  t.next_client_addr <- t.next_client_addr + 1;
  Ds_client.create ?config ~sim:t.sim ~net:t.net ~addr
    ~replicas:(List.init (Array.length t.servers) Fun.id)
    ~f:t.f ()

let crash_server t i =
  Ds_server.crash t.servers.(i);
  Net.set_node_down t.net i

let restart_server t i =
  Net.set_node_up t.net i;
  Ds_server.restart t.servers.(i)

(** [nemesis_target ~name ?restart t] binds the fault injector to this
    ensemble; [restart] defaults to {!restart_server}. *)
let nemesis_target ~name ?restart t =
  let net = t.net in
  let n = Array.length t.servers in
  {
    Nemesis.name;
    nodes = List.init n Fun.id;
    leader =
      (fun () ->
        (* the primary of the current PBFT view, if it is alive *)
        let rec find i =
          if i >= n then None
          else if
            Edc_replication.Pbft.is_primary (Ds_server.pbft t.servers.(i))
          then Some i
          else find (i + 1)
        in
        find 0);
    crash = crash_server t;
    restart = Option.value restart ~default:(restart_server t);
    cut = Net.cut_link net;
    heal = Net.heal_link net;
    cut_one_way = (fun ~src ~dst -> Net.cut_link_one_way net ~src ~dst);
    heal_one_way = (fun ~src ~dst -> Net.heal_link_one_way net ~src ~dst);
    silence = Net.set_node_down net;
    unsilence = Net.set_node_up net;
    (* PBFT membership is static in this deployment *)
    reconfig_in_flight = (fun () -> false);
    set_skew = (fun _ _ -> ()) (* no leases, no virtual clock *);
  }

let run_for t d = Sim.run ~until:(Sim_time.add (Sim.now t.sim) d) t.sim
