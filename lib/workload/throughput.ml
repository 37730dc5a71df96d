type point = {
  clients : int;
  per_second : float;
  errors : int;
  total_ops : int;
}

let ensure_serving cluster =
  match Dirsvc.Cluster.flavor cluster with
  | Dirsvc.Cluster.Group_disk | Dirsvc.Cluster.Group_nvram ->
      ignore
        (Dirsvc.Cluster.await_serving cluster
           ~count:(Dirsvc.Cluster.total_servers cluster))
  | Dirsvc.Cluster.Rpc_pair | Dirsvc.Cluster.Nfs_single ->
      Dirsvc.Cluster.run_until cluster
        (Sim.Engine.now (Dirsvc.Cluster.engine cluster) +. 100.0)

(* Launch one closed-loop client fiber running [loop_body] repeatedly.
   The fiber first performs one un-counted setup iteration (creating its
   directory, warming its port cache), then waits at [gate] for every
   client to be ready; only then does the measurement window open — so a
   slow setup under contention cannot eat into the window. *)
let closed_loop cluster ~gate ~arrived ~clients ~warmup ~window ~completed
    ~total ~errors loop_body =
  let client = Dirsvc.Cluster.client cluster in
  let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
  Sim.Proc.boot (Dirsvc.Cluster.engine cluster) node ~name:"load-client"
    (fun () ->
      (match loop_body client with
      | () -> incr total
      | exception _ -> incr errors);
      incr arrived;
      if !arrived = clients then begin
        let now = Sim.Proc.now () in
        Sim.Ivar.fill gate (now +. warmup, now +. warmup +. window)
      end;
      let t_start, t_stop = Sim.Ivar.read gate in
      while Sim.Proc.now () < t_stop do
        match loop_body client with
        | () ->
            incr total;
            if Sim.Proc.now () >= t_start then incr completed
        | exception _ ->
            incr errors;
            Sim.Proc.sleep 5.0
      done)

let run_window cluster ~warmup ~window ~clients ~setup ~op =
  ensure_serving cluster;
  let engine = Dirsvc.Cluster.engine cluster in
  (* Shared setup runs (and advances the clock) first. *)
  let shared = setup cluster in
  let completed = ref 0 and total = ref 0 and errors = ref 0 in
  let gate = Sim.Ivar.create () in
  let arrived = ref 0 in
  for i = 1 to clients do
    closed_loop cluster ~gate ~arrived ~clients ~warmup ~window ~completed
      ~total ~errors (op shared i)
  done;
  (* Drive the clock until the window (whose bounds the clients pick once
     all are ready) has fully elapsed. The gate ivar doubles as the
     readiness signal, so the engine stops the instant the last client
     arrives instead of being polled in 1 s chunks. *)
  if not (Sim.Drive.run_until_filled ~quantum:1_000.0 ~max_quanta:120 engine gate)
  then failwith "Throughput.run_window: clients never ready";
  (match Sim.Ivar.peek gate with
  | Some (_, t_stop) -> Dirsvc.Cluster.run_until cluster (t_stop +. 500.0)
  | None -> assert false);
  {
    clients;
    per_second = float_of_int !completed /. (window /. 1000.0);
    errors = !errors;
    total_ops = !total;
  }

(* Run [f] on a fresh client fiber and wait for it. *)
let run_setup cluster f =
  let client = Dirsvc.Cluster.client cluster in
  let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
  let result = ref None in
  let finished = Sim.Ivar.create () in
  Sim.Proc.boot (Dirsvc.Cluster.engine cluster) node ~name:"setup" (fun () ->
      result := Some (f client);
      Sim.Ivar.fill finished ());
  let engine = Dirsvc.Cluster.engine cluster in
  if
    not
      (Sim.Drive.run_until_filled ~quantum:1_000.0 ~max_quanta:100 engine
         finished)
  then failwith "Throughput: setup never finished";
  match !result with
  | Some v -> v
  | None -> failwith "Throughput: setup never finished"

let lookups ?(warmup = 300.0) ?(window = 2_000.0) cluster ~clients =
  let setup cluster =
    run_setup cluster (fun client ->
        let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
        Dirsvc.Client.append_row client cap ~name:"target" [ cap ];
        cap)
  in
  let op cap _i client =
    match Dirsvc.Client.lookup client cap "target" with
    | Some _ | None -> ()
  in
  run_window cluster ~warmup ~window ~clients ~setup ~op

let append_deletes ?(warmup = 500.0) ?(window = 4_000.0) cluster ~clients =
  (* Per-run table, not module state: concurrent or repeated runs must
     not see each other's capabilities. *)
  let caps_table : (int, Capability.t) Hashtbl.t = Hashtbl.create 16 in
  let setup _cluster = () in
  let op () i client =
    (* Per-client directory: create lazily on first use. *)
    let cap =
      match Hashtbl.find_opt caps_table i with
      | Some cap -> cap
      | None ->
          let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
          Hashtbl.replace caps_table i cap;
          cap
    in
    let name = Printf.sprintf "t%d" i in
    Dirsvc.Client.append_row client cap ~name [ cap ];
    Dirsvc.Client.delete_row client cap ~name
  in
  run_window cluster ~warmup ~window ~clients ~setup ~op

(* The shard sweep's workload: update-heavy, every client hammering its
   own directories, placed across the shards by the partition map (so
   with M groups the ordering work spreads over M sequencers). Each
   client owns two directories — placements "c<i>.a" and "c<i>.b" — and
   loops append+delete pairs on the first; every [cross_period]-th
   iteration instead moves the row to the second directory and deletes
   it there, which is a two-group commit whenever the two placements
   hash to different shards. [cross_period = 0] (the default) never
   moves. On a one-shard cluster every placement maps to shard 0 and
   this degenerates to append_deletes with an occasional move. *)
let shard_updates ?(warmup = 500.0) ?(window = 4_000.0) ?(cross_period = 0)
    cluster ~clients =
  let dirs : (int, Capability.t * Capability.t) Hashtbl.t = Hashtbl.create 16 in
  let iter_no : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let setup _cluster = () in
  let op () i client =
    let dir_a, dir_b =
      match Hashtbl.find_opt dirs i with
      | Some pair -> pair
      | None ->
          let dir_a =
            Dirsvc.Client.create_dir
              ~placement:(Printf.sprintf "c%d.a" i)
              client ~columns:[ "owner" ]
          in
          let dir_b =
            Dirsvc.Client.create_dir
              ~placement:(Printf.sprintf "c%d.b" i)
              client ~columns:[ "owner" ]
          in
          Hashtbl.replace dirs i (dir_a, dir_b);
          (dir_a, dir_b)
    in
    let k =
      (match Hashtbl.find_opt iter_no i with Some k -> k | None -> 0) + 1
    in
    Hashtbl.replace iter_no i k;
    let name = Printf.sprintf "t%d" i in
    Dirsvc.Client.append_row client dir_a ~name [ dir_a ];
    if cross_period > 0 && k mod cross_period = 0 then begin
      Dirsvc.Client.move_row client ~src:dir_a ~dst:dir_b ~name;
      Dirsvc.Client.delete_row client dir_b ~name
    end
    else Dirsvc.Client.delete_row client dir_a ~name
  in
  run_window cluster ~warmup ~window ~clients ~setup ~op

(* Every point builds a fresh deployment, so points share nothing and
   can fan out over a domain pool; Pool.map joins in submission order,
   so the returned list (and anything printed from it) is identical for
   any pool size. *)
let sweep ?pool make_cluster measure points =
  let run clients =
    let cluster = make_cluster () in
    measure cluster ~clients
  in
  match pool with
  | None -> List.map run points
  | Some pool -> Sim.Pool.map pool run points
