exception Rpc_failure of string

type config = {
  locate_window : float;
  trans_timeout : float;
  max_attempts : int;
  locate_rounds : int;
  locate_backoff : float;
}

let default_config =
  {
    locate_window = 2.0;
    trans_timeout = 400.0;
    max_attempts = 6;
    locate_rounds = 4;
    locate_backoff = 5.0;
  }

type outcome = Got_reply of Simnet.Payload.t | Bounced

type service = {
  mutable active : bool;
  queue : (int * int * Simnet.Payload.t) Sim.Mailbox.t; (* xid, client, body *)
}

type t = {
  config : config;
  net : Simnet.Network.t;
  nic : Simnet.Network.nic;
  node_id : int;
  mutable next_xid : int;
  services : (string, service) Hashtbl.t;
  pending : (int, outcome Sim.Ivar.t) Hashtbl.t; (* by xid *)
  locates : (int, int list ref) Hashtbl.t; (* xid -> responders, newest first *)
  port_cache : (string, int list ref) Hashtbl.t;
}

let node_id t = t.node_id

let node t = Simnet.Network.nic_node t.nic

let nic t = t.nic

let fresh_xid t =
  t.next_xid <- t.next_xid + 1;
  (* Make xids globally unique across nodes so crossed wires are inert. *)
  (t.node_id * 1_000_000) + t.next_xid

let send t ~dst payload = Simnet.Network.send t.net t.nic ~dst ~proto:Wire.proto payload

(* Only a service with an idle worker thread answers a Locate or
   accepts a Request (the paper's NOTHERE heuristic). *)
let listening service =
  service.active && Sim.Mailbox.waiters service.queue > 0

(* Per-packet probes use [Hashtbl.find] and catch [Not_found] (a
   preallocated exception): [find_opt] allocates a [Some] per hit. *)
let handle_packet t (packet : Simnet.Packet.t) =
  match packet.payload with
  | Wire.Locate { port; xid; client } -> (
      match Hashtbl.find t.services port with
      | service when listening service ->
          send t ~dst:client (Wire.Here_is { port; xid; server = t.node_id })
      | _ | (exception Not_found) -> ())
  | Wire.Request { port; xid; client; body } -> (
      match Hashtbl.find t.services port with
      | service when listening service ->
          Sim.Mailbox.send service.queue (xid, client, body)
      | _ | (exception Not_found) ->
          send t ~dst:client (Wire.Not_here { port; xid; server = t.node_id }))
  | Wire.Reply { xid; server; body } -> (
      match Hashtbl.find t.pending xid with
      | ivar ->
          Hashtbl.remove t.pending xid;
          (* The kernel acknowledges the reply: third packet of the
             3-message Amoeba RPC. *)
          send t ~dst:server (Wire.Ack { xid; client = t.node_id });
          Sim.Ivar.fill ivar (Got_reply body)
      | exception Not_found -> ())
  | Wire.Not_here { xid; _ } -> (
      match Hashtbl.find t.pending xid with
      | ivar ->
          Hashtbl.remove t.pending xid;
          Sim.Ivar.fill ivar Bounced
      | exception Not_found -> ())
  | Wire.Here_is { xid; server; _ } -> (
      match Hashtbl.find t.locates xid with
      | responders -> responders := server :: !responders
      | exception Not_found -> ())
  | Wire.Ack _ -> ()
  | _ -> ()

let create ?(config = default_config) net nic =
  let t =
    {
      config;
      net;
      nic;
      node_id = Sim.Node.id (Simnet.Network.nic_node nic);
      next_xid = 0;
      services = Hashtbl.create 4;
      pending = Hashtbl.create 16;
      locates = Hashtbl.create 4;
      port_cache = Hashtbl.create 4;
    }
  in
  let socket = Simnet.Network.socket nic ~proto:Wire.proto in
  (* The only RPC multicast is Locate, and a transport that has never
     served anything answers every Locate with silence — so until the
     first [serve], the NIC filters RPC multicasts out (unicast replies
     still arrive). For a pure client this removes one delivery event
     plus one dispatch wakeup per broadcast in the whole run; under a
     locate storm that is most of the event heap. *)
  Simnet.Network.set_multicast_interest nic ~proto:Wire.proto false;
  let node = Simnet.Network.nic_node nic in
  Sim.Proc.boot (Simnet.Network.engine net) node ~name:"rpc.dispatch" (fun () ->
      while true do
        handle_packet t (Sim.Mailbox.recv socket)
      done);
  t

let serve t ~port ?(threads = 2) handler =
  (* First service: start listening to Locate broadcasts. *)
  Simnet.Network.set_multicast_interest t.nic ~proto:Wire.proto true;
  let service =
    match Hashtbl.find_opt t.services port with
    | Some service ->
        service.active <- true;
        service
    | None ->
        let service = { active = true; queue = Sim.Mailbox.create () } in
        Hashtbl.add t.services port service;
        service
  in
  let worker () =
    while service.active do
      let xid, client, body = Sim.Mailbox.recv service.queue in
      let reply = handler ~client body in
      send t ~dst:client (Wire.Reply { xid; server = t.node_id; body = reply })
    done
  in
  let node = Simnet.Network.nic_node t.nic in
  for i = 1 to threads do
    Sim.Proc.boot (Simnet.Network.engine t.net) node
      ~name:(Printf.sprintf "rpc.%s.worker%d" port i)
      worker
  done

let stop_serving t ~port =
  match Hashtbl.find_opt t.services port with
  | Some service -> service.active <- false
  | None -> ()

let cached_servers t ~port =
  match Hashtbl.find_opt t.port_cache port with Some l -> !l | None -> []

let invalidate_cache t ~port = Hashtbl.remove t.port_cache port

let drop_cached t ~port server =
  match Hashtbl.find_opt t.port_cache port with
  | Some l -> l := List.filter (fun s -> s <> server) !l
  | None -> ()

let tracing t = Sim.Engine.tracing (Simnet.Network.engine t.net)

let emit t ~name attrs =
  Sim.Engine.emit (Simnet.Network.engine t.net) ~subsystem:"rpc"
    ~node:t.node_id ~name attrs

(* Broadcast a locate and collect HEREIS answers for [locate_window] ms.
   The cache keeps responders in arrival order; the client always tries
   the first one — the paper's "first server that replied" heuristic. *)
let locate t ~port =
  let xid = fresh_xid t in
  let responders = ref [] in
  Hashtbl.replace t.locates xid responders;
  if tracing t then
    emit t ~name:"locate"
      [ ("port", Sim.Trace.Str port); ("xid", Sim.Trace.Int xid) ];
  Simnet.Network.multicast t.net t.nic ~proto:Wire.proto
    (Wire.Locate { port; xid; client = t.node_id });
  Sim.Proc.sleep t.config.locate_window;
  Hashtbl.remove t.locates xid;
  let in_arrival_order = List.rev !responders in
  Hashtbl.replace t.port_cache port (ref in_arrival_order);
  if tracing t then
    emit t ~name:"locate.done"
      [
        ("port", Sim.Trace.Str port);
        ("xid", Sim.Trace.Int xid);
        ( "servers",
          Sim.Trace.Str
            (String.concat "," (List.map string_of_int in_arrival_order)) );
      ];
  in_arrival_order

let ensure_located t ~port =
  match cached_servers t ~port with
  | _ :: _ as servers -> servers
  | [] ->
      (* A busy server answers a Locate with silence, so an empty round
         means every server is saturated (or none exists): re-asking at
         a fixed period only adds load. The pause doubles per empty
         round; it is deterministic (no jitter), so no RNG draw moves. *)
      let rec try_rounds round pause =
        if round > t.config.locate_rounds then
          raise (Rpc_failure (Printf.sprintf "service %s: not located" port));
        match locate t ~port with
        | _ :: _ as servers -> servers
        | [] ->
            Sim.Proc.sleep pause;
            try_rounds (round + 1) (2.0 *. pause)
      in
      try_rounds 1 t.config.locate_backoff

let trans t ~port ?timeout ?(size = 128) body =
  let timeout =
    match timeout with Some d -> d | None -> t.config.trans_timeout
  in
  let started = Sim.Engine.now (Simnet.Network.engine t.net) in
  let rec attempt n =
    if n > t.config.max_attempts then
      raise (Rpc_failure (Printf.sprintf "service %s: no reply" port));
    match ensure_located t ~port with
    | [] -> assert false (* ensure_located raises instead *)
    | server :: _ -> (
        let xid = fresh_xid t in
        let ivar = Sim.Ivar.create () in
        Hashtbl.replace t.pending xid ivar;
        if tracing t then
          emit t ~name:"trans"
            [
              ("port", Sim.Trace.Str port);
              ("xid", Sim.Trace.Int xid);
              ("server", Sim.Trace.Int server);
              ("attempt", Sim.Trace.Int n);
              ("size", Sim.Trace.Int size);
            ];
        Simnet.Network.send t.net t.nic ~dst:server ~proto:Wire.proto ~size
          (Wire.Request { port; xid; client = t.node_id; body });
        match Sim.Ivar.read ~timeout ivar with
        | Got_reply reply ->
            if tracing t then
              emit t ~name:"trans.done"
                [
                  ("port", Sim.Trace.Str port);
                  ("xid", Sim.Trace.Int xid);
                  ("server", Sim.Trace.Int server);
                  ("attempts", Sim.Trace.Int n);
                  ( "latency_ms",
                    Sim.Trace.Float
                      (Sim.Engine.now (Simnet.Network.engine t.net) -. started)
                  );
                ];
            reply
        | Bounced ->
            (* NOTHERE: the server was busy; try the next cached one. *)
            if tracing t then
              emit t ~name:"trans.bounce"
                [
                  ("port", Sim.Trace.Str port);
                  ("xid", Sim.Trace.Int xid);
                  ("server", Sim.Trace.Int server);
                ];
            drop_cached t ~port server;
            attempt (n + 1)
        | exception Sim.Proc.Timeout ->
            Hashtbl.remove t.pending xid;
            if tracing t then
              emit t ~name:"trans.timeout"
                [
                  ("port", Sim.Trace.Str port);
                  ("xid", Sim.Trace.Int xid);
                  ("server", Sim.Trace.Int server);
                ];
            drop_cached t ~port server;
            attempt (n + 1))
  in
  attempt 1
