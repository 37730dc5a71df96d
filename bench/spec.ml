(* The experiment table shared by main.exe and check_speed.exe: the
   seed-fixed deployments both executables run (scenarios, with their
   --quick and full sizes) and the column specs that render one list of
   results as both a text table and a JSON array. *)

module C = Dirsvc.Cluster
module J = Sim.Json

(* ---- Columns --------------------------------------------------------- *)

(* One column of a result table: [header] and [cell] make the text
   table, [key] and [json] the JSON object of each row. An empty header
   keeps the column out of the text table; an empty key keeps it out of
   the JSON. *)
type 'a column = {
  header : string;
  key : string;
  cell : 'a -> string;
  json : 'a -> J.t;
}

let col header key cell json = { header; key; cell; json }

let float_col ~digits header key get =
  col header key
    (fun r -> Printf.sprintf "%.*f" digits (get r))
    (fun r -> J.Float (get r))

let int_col header key get =
  col header key (fun r -> string_of_int (get r)) (fun r -> J.Int (get r))

(* A value that can be undefined (a ratio over zero ops): "-" in the
   table, null in the JSON. *)
let opt_col ~digits header key get =
  col header key
    (fun r ->
      match get r with Some v -> Printf.sprintf "%.*f" digits v | None -> "-")
    (fun r -> match get r with Some v -> J.Float v | None -> J.Null)

let json_col key json = col "" key (fun _ -> "") json

let text_col header cell = col header "" cell (fun _ -> J.Null)

let render cols rows =
  let cols = List.filter (fun c -> c.header <> "") cols in
  Workload.Tables.render
    ~header:(List.map (fun c -> c.header) cols)
    (List.map (fun r -> List.map (fun c -> c.cell r) cols) rows)

let to_json cols rows =
  let cols = List.filter (fun c -> c.key <> "") cols in
  let obj r = J.Obj (List.map (fun c -> (c.key, c.json r)) cols) in
  J.List (List.map obj rows)

(* ---- Scenarios ------------------------------------------------------- *)

(* Closed-loop load: [clients] callers, measured over [window] ms. *)
type load = { clients : int; window : float }

type workload =
  | Latency of { repeats : int }  (** Fig. 7's three single-client runs *)
  | Lookups of load  (** Fig. 8 *)
  | Pairs of load  (** Fig. 9 *)
  | Shard_updates of load * int  (** with a cross-shard move period *)

(* A seed-fixed deployment and what to drive it with, at the --quick
   and at the full size (the same unless given). *)
type scenario = {
  name : string;
  seed : int64;
  flavor : C.flavor;
  servers : int option;
  params : Dirsvc.Params.t;
  quick : workload;
  full : workload;
}

let scenario ?servers ?(params = Dirsvc.Params.default) ?(flavor = C.Group_disk)
    ?quick name ~seed ~full =
  let quick = Option.value quick ~default:full in
  { name; seed; flavor; servers; params; quick; full }

type run = {
  cluster : C.t;
  point : Workload.Throughput.point;
      (* [Latency]: no rate; [total_ops] counts the measured iterations *)
  latencies : Workload.Scenarios.fig7 option;  (* [Latency] only *)
}

let run ~quick s =
  let cluster =
    C.create ~seed:s.seed ~params:s.params ?servers:s.servers s.flavor
  in
  let loaded point = { cluster; point; latencies = None } in
  match if quick then s.quick else s.full with
  | Latency { repeats } ->
      let latencies = Some (Workload.Scenarios.run_fig7 ~repeats cluster) in
      let point =
        Workload.Throughput.
          { clients = 1; per_second = 0.0; errors = 0; total_ops = 3 * repeats }
      in
      { cluster; point; latencies }
  | Lookups { clients; window } ->
      loaded (Workload.Throughput.lookups cluster ~clients ~window)
  | Pairs { clients; window } ->
      loaded (Workload.Throughput.append_deletes cluster ~clients ~window)
  | Shard_updates ({ clients; window }, cross_period) ->
      loaded
        (Workload.Throughput.shard_updates cluster ~clients ~window
           ~cross_period)

let count r key = Sim.Metrics.count (C.metrics r.cluster) key

let events r = Sim.Engine.events_executed (C.engine r.cluster)

(* A run with its real cost: wall seconds and GC minor words, measured
   around the whole thing — deployment construction is part of the
   cost a larger experiment pays. *)
type timed = {
  scenario : scenario;
  result : run;
  wall_s : float;
  minor_words : float;
}

let timed ~quick s =
  Gc.full_major ();
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let result = run ~quick s in
  let wall_s = Unix.gettimeofday () -. t0 in
  { scenario = s; result; wall_s; minor_words = Gc.minor_words () -. minor0 }

(* The speed experiment's workloads, which the events-per-packet gate
   runs at the --quick size. *)
let speed_scenarios =
  [
    (* Fig. 7's workload: one client, the three latency scenarios. *)
    scenario "fig7_latency" ~seed:7L ~quick:(Latency { repeats = 3 })
      ~full:(Latency { repeats = 40 });
    (* Fig. 8's workload: 7 closed-loop lookup clients. *)
    scenario "fig8_lookup" ~seed:801L
      ~quick:(Lookups { clients = 7; window = 500.0 })
      ~full:(Lookups { clients = 7; window = 10_000.0 });
    (* Fig. 9's workload: 7 closed-loop append-delete clients — every
       update is a SendToGroup multicast, the protocol hot path. *)
    scenario "fig9_append_delete" ~seed:901L
      ~quick:(Pairs { clients = 7; window = 1_000.0 })
      ~full:(Pairs { clients = 7; window = 30_000.0 });
    (* Beyond the paper's 7 clients: 50 closed-loop update clients
       against a 5-replica group. Its default params are batch = 1 of
       the batch-efficiency sweep. *)
    scenario "scaled_50c_5s" ~seed:5001L ~servers:5
      ~quick:(Pairs { clients = 12; window = 500.0 })
      ~full:(Pairs { clients = 50; window = 2_000.0 });
  ]

(* The scaled scenario with sequencer batching and group commit at
   [batch_max]; batch = 1 is the wire-identical unbatched protocol. *)
let batched batch_max =
  let scaled = List.nth speed_scenarios 3 in
  { scaled with params = { scaled.params with batch_max } }

(* Saturating update load: 50 closed-loop callers on 5 replicas keep
   every server thread busy. *)
let storm =
  scenario "storm" ~seed:5050L ~servers:5
    ~full:(Pairs { clients = 50; window = 4_000.0 })

(* ---- Throughput vs shard count -------------------------------------- *)

(* An [m]-shard deployment spending the whole server budget, so more
   shards means smaller groups. *)
let shard_budget = 12

let sharded ?quick ~m ~seed full =
  scenario ?quick
    (Printf.sprintf "shards=%d" m)
    ~seed ~servers:(shard_budget / m)
    ~params:{ Dirsvc.Params.default with shards = m }
    ~full

(* The shards experiment's runs, sized (clients, window ms, cross
   period): [cross = false] is the pure-update column; [cross = true]
   mixes in a cross-shard move every 2nd (--quick) / 4th iteration per
   client, so the cross path actually runs within the few iterations a
   window fits. *)
let shards_size ~quick = if quick then (8, 500.0, 2) else (24, 8_000.0, 4)

let shards_point ~cross ~m seed =
  let load quick =
    let clients, window, period = shards_size ~quick in
    Shard_updates ({ clients; window }, if cross then period else 0)
  in
  sharded ~m ~seed ~quick:(load true) (load false)

let shard_gate_point m =
  sharded ~m ~seed:4242L (Shard_updates ({ clients = 16; window = 1_000.0 }, 0))

(* ---- The paper's figures -------------------------------------------- *)

let flavors =
  [
    (C.Group_disk, "Group (3)");
    (C.Rpc_pair, "RPC (2)");
    (C.Nfs_single, "Sun NFS (1)");
    (C.Group_nvram, "Group+NVRAM (3)");
  ]

let fig7_seed = 7L

let fig7_point ~seed (flavor, name) =
  scenario name ~seed ~flavor ~quick:(Latency { repeats = 3 })
    ~full:(Latency { repeats = 12 })

(* Figs. 8 and 9: per flavor, per client count, three replicate runs
   averaged (like the paper; the port-cache assignment makes single
   runs noisy). *)
type sweep = { base : int64; load : load -> workload; window : float }

let fig8_sweep = { base = 800L; load = (fun l -> Lookups l); window = 2_000.0 }

let fig9_sweep = { base = 900L; load = (fun l -> Pairs l); window = 4_000.0 }

let sweep_clients = [ 1; 2; 3; 4; 5; 6; 7 ]

let sweep_flavors =
  [
    (C.Group_disk, 1L, "group", "Group service");
    (C.Group_nvram, 2L, "group_nvram", "Group service + NVRAM");
    (C.Rpc_pair, 3L, "rpc", "RPC service");
  ]

let replicate_seeds seed = [ seed; Int64.add seed 37L; Int64.add seed 71L ]

(* The grid from base seed [base]: per flavor, per client count in
   [points], the replicate runs. *)
let sweep_grid sw ~base ~points =
  List.map
    (fun (flavor, off, key, _) ->
      List.map
        (fun clients ->
          List.map
            (fun seed ->
              scenario key ~seed ~flavor
                ~quick:(sw.load { clients; window = 500.0 })
                ~full:(sw.load { clients; window = sw.window }))
            (replicate_seeds (Int64.add base off)))
        points)
    sweep_flavors

(* The full figure grid (fig7's flavor runs plus every (flavor, clients,
   seed) point of Figs. 8 and 9) as independent thunks: the workload
   whose wall clock the --jobs fan-out is meant to cut. *)
let grid_thunks ~quick =
  let points = if quick then [ 3; 7 ] else sweep_clients in
  List.map
    (fun s () -> ignore (run ~quick s))
    (List.map (fig7_point ~seed:fig7_seed) flavors
    @ List.concat_map
        (fun sw ->
          List.concat (List.concat (sweep_grid sw ~base:sw.base ~points)))
        [ fig8_sweep; fig9_sweep ])

(* Wall clock of [thunks] on a private [jobs]-domain pool. *)
let pool_wall ~jobs thunks =
  Sim.Pool.with_pool ~jobs (fun pool ->
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      ignore (Sim.Pool.map pool (fun f -> f ()) thunks);
      Unix.gettimeofday () -. t0)
