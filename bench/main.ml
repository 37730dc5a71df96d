(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4), the §3.1 message/disk cost analysis, the design
   ablations called out in DESIGN.md, the throughput-vs-shards sweep,
   the simulator's own wall-clock speed, and Bechamel microbenchmarks
   of the hot code paths (one Test.make per table/figure). The
   deployments shared with check_speed.exe and the column specs that
   render each result as text and JSON live in spec.ml.

   Run everything:        dune exec bench/main.exe
   One experiment:        dune exec bench/main.exe -- fig7
   Machine-readable:      dune exec bench/main.exe -- fig7 --json [FILE]
                          (writes BENCH_<name>.json per experiment, prints
                          one aggregate JSON document on stdout)
   Parallel grid:         dune exec bench/main.exe -- --jobs 4
                          (fan the independent runs over 4 domains; all
                          output — text, per-experiment files, aggregate
                          JSON — is byte-identical for every --jobs value)
   Multi-seed sweeps:     dune exec bench/main.exe -- fig7 --seeds 5
                          (rerun each figure across 5 derived seeds and
                          report mean ± 95% CI)
   Smoke sizes:           dune exec bench/main.exe -- speed shards --quick
   Available experiments: the [experiments] table at the bottom; an
                          unknown name prints it, one line each. *)

module C = Dirsvc.Cluster
module J = Sim.Json

(* Under --json, stdout must stay pure JSON: every human-readable line in
   this file flows through these two shadowed bindings. Under --jobs N,
   experiments run on worker domains, so the bindings route through a
   domain-local sink: a task that prints is wrapped in [captured], its
   output lands in a per-task buffer, and the coordinator replays the
   buffers in submission order — stdout never depends on which domain
   finished first. *)
let quiet = ref false

let sink_key : Buffer.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let print_string s =
  if not !quiet then
    match Domain.DLS.get sink_key with
    | Some buf -> Buffer.add_string buf s
    | None -> Stdlib.print_string s

let printf fmt = Printf.ksprintf print_string fmt

(* [captured f] runs [f] with prints redirected into a fresh buffer and
   returns (output, result). Nests: helping domains save and restore the
   sink around each task they pick up. *)
let captured f =
  let buf = Buffer.create 256 in
  let saved = Domain.DLS.get sink_key in
  Domain.DLS.set sink_key (Some buf);
  match f () with
  | v ->
      Domain.DLS.set sink_key saved;
      (Buffer.contents buf, v)
  | exception e ->
      Domain.DLS.set sink_key saved;
      raise e

(* ---- flags and parallel fan-out ------------------------------------ *)

let jobs_level = ref 1

let seed_count = ref 1

let quick = ref false

(* Created on first use, after --jobs is parsed, by the main domain
   (worker domains only ever see it forced). *)
let pool = lazy (Sim.Pool.create ~jobs:!jobs_level)

let psubmit f = Sim.Pool.submit (Lazy.force pool) f

let pmap f items = Sim.Pool.map (Lazy.force pool) f items

(* Tasks that print run [captured] on the pool; [replay] joins one,
   printing its output. [captured_map] is [pmap] for tasks that print:
   outputs replay in submission order. *)
let submit_captured f = psubmit (fun () -> captured f)

let replay fut =
  let out, value = Sim.Pool.await fut in
  print_string out;
  value

let captured_map f items =
  List.map replay (List.map (fun x -> submit_captured (fun () -> f x)) items)

let mean = Workload.Stats.mean

(* How far [key] moved in a [Sim.Metrics.delta]; 0 if it did not. *)
let moved delta key = Option.value (List.assoc_opt key delta) ~default:0

(* Latency-histogram summaries (p50/p90/p95/p99 straight from the bucket
   counts) recorded by a cluster's servers during a run, keyed by the
   canonical labelled metric name. *)
let histogram_summaries metrics =
  J.Obj
    (List.map
       (fun (key, h) -> (key, Sim.Metrics.Histogram.summary_to_json h))
       (Sim.Metrics.histograms metrics))

(* A JSON key from a display name: dashes and spaces become underscores. *)
let underscored = String.map (function '-' | ' ' -> '_' | c -> c)

(* ---- Fig. 7: single-client latency table -------------------------- *)

type fig7_scenario = {
  label : string;
  header : string; (* of the --seeds table; underscored, the JSON key *)
  paper : string; (* Group / RPC / NFS / NVRAM ms *)
  pick : Workload.Scenarios.fig7 -> Workload.Stats.summary;
}

let fig7_scenarios =
  Workload.Scenarios.
    [
      {
        label = "Append-delete";
        header = "append-delete";
        paper = "184/192/87/27";
        pick = (fun f -> f.append_delete_ms);
      };
      {
        label = "Tmp file";
        header = "tmp file";
        paper = "215/277/111/52";
        pick = (fun f -> f.tmp_file_ms);
      };
      {
        label = "Directory lookup";
        header = "lookup";
        paper = "5/5/6/5";
        pick = (fun f -> f.lookup_ms);
      };
    ]

let ci_cell (s : Workload.Stats.summary) =
  Printf.sprintf "%.1f ± %.1f" s.mean s.ci95

let ci_json (s : Workload.Stats.summary) =
  J.Obj
    [
      ("n", J.Int s.n);
      ("mean", J.Float s.mean);
      ("stddev", J.Float s.stddev);
      ("ci95", J.Float s.ci95);
    ]

(* [--seeds K]: rerun a figure once per seed derived from [base] and
   summarise each cell across the reruns as mean ± 95% CI, printed as a
   table of [header] with one row per label. [submit seed] starts a
   rerun and returns its join: one list of cells per label. The JSON
   record maps each label to its summary, or with several cells to an
   object of them keyed by header. *)
let seed_variance ~base ~title ~header labels submit =
  if !seed_count <= 1 then []
  else
    let seeds = Workload.Scenarios.derive_seeds ~base !seed_count in
    let runs = List.map (fun join -> join ()) (List.map submit seeds) in
    let cells =
      List.mapi
        (fun i label ->
          ( label,
            List.mapi
              (fun j _ ->
                Workload.Stats.summarise
                  (List.map (fun run -> List.nth (List.nth run i) j) runs))
              (List.tl header) ))
        labels
    in
    printf title (List.length seeds);
    let row =
      match List.tl header with
      | [ _ ] -> List.hd
      | hs -> fun cis -> J.Obj (List.combine (List.map underscored hs) cis)
    in
    print_string
      (Workload.Tables.render ~header
         (List.map (fun (label, ss) -> label :: List.map ci_cell ss) cells));
    [
      ( "seed_variance",
        J.Obj
          (List.map
             (fun (label, ss) -> (label, row (List.map ci_json ss)))
             cells) );
    ]

(* Per-flavor runs are independent deployments: fan them out. *)
let fig7_run ~seed flavor =
  let r = Spec.run ~quick:false (Spec.fig7_point ~seed flavor) in
  (Option.get r.latencies, C.metrics r.cluster)

let fig7 () =
  printf "== Fig. 7: single-client latency (simulated msec) ==\n\n";
  let measured = pmap (fig7_run ~seed:Spec.fig7_seed) Spec.flavors in
  print_string
    (Workload.Tables.render
       ~header:
         (("Operation" :: List.map snd Spec.flavors) @ [ "paper (G/R/N/V)" ])
       (List.map
          (fun s ->
            (s.label
            :: List.map
                 (fun (fig, _) ->
                   Printf.sprintf "%.0f" (s.pick fig).Workload.Stats.mean)
                 measured)
            @ [ s.paper ])
          fig7_scenarios));
  let flavor (_, name) (fig, metrics) =
    J.Obj
      [
        ("service", J.String name);
        ( "client_latency_ms",
          J.Obj
            (List.map
               (fun s ->
                 ( underscored s.header,
                   Workload.Stats.summary_to_json (s.pick fig) ))
               fig7_scenarios) );
        (* Per-server latency histograms recorded inside the servers
           themselves, e.g. "dirsvc.op_ms{op=append_row,server=2}". *)
        ("server_latency_ms", histogram_summaries metrics);
      ]
  in
  let variance =
    seed_variance ~base:Spec.fig7_seed
      ~title:"\nseed variance across %d derived seeds (mean ± 95%% CI, ms):\n"
      ~header:("service" :: List.map (fun s -> s.header) fig7_scenarios)
      (List.map snd Spec.flavors)
      (fun seed ->
        let futures =
          List.map
            (fun fl -> psubmit (fun () -> fig7_run ~seed fl))
            Spec.flavors
        in
        fun () ->
          List.map
            (fun fut ->
              let fig, _ = Sim.Pool.await fut in
              List.map
                (fun s -> (s.pick fig).Workload.Stats.mean)
                fig7_scenarios)
            futures)
  in
  J.Obj
    (("flavors", J.List (List.map2 flavor Spec.flavors measured)) :: variance)

(* ---- Figs. 8 and 9: throughput vs clients ------------------------- *)

(* The three per-flavor sweeps of a figure, as one grid of independent
   (flavor, clients, seed) runs fanned out over the pool. Submission
   happens up front; the returned join re-assembles the per-flavor
   series in submission order, so the series — and every table printed
   from them — are identical at any --jobs level. *)
let grid_submit sw ~base =
  let futures =
    List.map
      (List.map
         (List.map (fun s ->
              psubmit (fun () ->
                  (Spec.run ~quick:false s).point
                    .Workload.Throughput.per_second))))
      (Spec.sweep_grid sw ~base ~points:Spec.sweep_clients)
  in
  fun () ->
    List.map
      (fun per_flavor ->
        List.map2
          (fun clients futs -> (clients, mean (List.map Sim.Pool.await futs)))
          Spec.sweep_clients per_flavor)
      futures

let saturation series = List.fold_left (fun acc (_, v) -> max acc v) 0.0 series

(* Figs. 8 and 9 differ only in title, sweep and the paper's numbers:
   [paper] prints those against the measured saturations; [extra] is
   JSON placed before the saturation record. *)
let sweep_figure ~title ?(extra = []) sw ~paper =
  printf "\n== %s ==\n\n" title;
  let series = grid_submit sw ~base:sw.Spec.base () in
  List.iter2
    (fun (_, _, _, label) s ->
      print_string
        (Workload.Tables.series ~title:label ~x_label:"clients"
           ~y_label:"ops/s" s);
      printf "\n")
    Spec.sweep_flavors series;
  let sats = List.map saturation series in
  (match sats with
  | [ group; nvram; rpc ] -> paper ~group ~nvram ~rpc
  | _ -> assert false);
  let variance =
    seed_variance ~base:sw.Spec.base
      ~title:
        "seed variance of saturation across %d derived seeds (mean ± 95%% \
         CI):\n"
      ~header:[ "series"; "saturation ops/s" ]
      (List.map (fun (_, _, key, _) -> key) Spec.sweep_flavors)
      (fun base ->
        let join = grid_submit sw ~base in
        fun () -> List.map (fun series -> [ saturation series ]) (join ()))
  in
  let keyed f xs =
    List.map2 (fun (_, _, key, _) x -> (key, f x)) Spec.sweep_flavors xs
  in
  J.Obj
    (keyed
       (Spec.to_json
          [
            Spec.json_col "clients" (fun (clients, _) -> J.Int clients);
            Spec.json_col "per_second" (fun (_, ps) -> J.Float ps);
          ])
       series
    @ extra
    @ [ ("saturation", J.Obj (keyed (fun s -> J.Float s) sats)) ]
    @ variance)

let fig8 () =
  let bound servers =
    Workload.Bounds.read_bound Dirsvc.Params.default ~servers
  in
  sweep_figure ~title:"Fig. 8: lookup throughput vs number of clients"
    ~extra:
      [
        ( "analytic_bound",
          J.Obj [ ("group", J.Float (bound 3)); ("rpc", J.Float (bound 2)) ] );
      ]
    Spec.fig8_sweep
    ~paper:(fun ~group ~nvram ~rpc ->
      printf "analytic upper bounds (paper: 1000 group / 666 RPC):\n";
      printf "  group: %.0f lookups/s   rpc: %.0f lookups/s\n" (bound 3)
        (bound 2);
      printf "measured saturation (paper: 652 group, 520 RPC):\n";
      printf "  group: %.0f   group+nvram: %.0f   rpc: %.0f\n" group nvram rpc)

let fig9 () =
  sweep_figure ~title:"Fig. 9: append-delete pairs/s vs number of clients"
    Spec.fig9_sweep ~paper:(fun ~group ~nvram ~rpc ->
      printf "paper's saturation: 5 group / 5 RPC / 45 NVRAM pairs/s\n";
      printf "measured saturation: group %.1f, rpc %.1f, nvram %.1f\n" group
        rpc nvram;
      printf
        "(append and delete are both writes, so write throughput is twice \
         these)\n")

(* ---- §3.1 cost analysis: messages and disk ops per update ---------- *)

let costs () =
  printf "\n== Cost analysis per update (paper §3.1) ==\n\n";
  let one_update (flavor, name) =
    let cluster = C.create ~seed:19L flavor in
    (* The paper's 5-message count is for an initiator that is not the
       sequencer (the common case); steer the measurement client to a
       server other than node 1, the group creator. *)
    let rec non_sequencer_client tries =
      let client = C.client cluster in
      if tries = 0 then client
      else begin
        let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
        Sim.Proc.boot (C.engine cluster) node (fun () ->
            try ignore (Dirsvc.Client.list_dir client
                          (Capability.owner ~port:"dirsvc" ~obj:0 0L))
            with _ -> ());
        C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 200.0);
        match
          Rpc.Transport.cached_servers
            (Dirsvc.Client.transport client)
            ~port:(C.port cluster)
        with
        | head :: _ when head <> 1 -> client
        | _ -> non_sequencer_client (tries - 1)
      end
    in
    let client =
      match flavor with
      | C.Group_disk | C.Group_nvram ->
          ignore (C.await_serving cluster ~count:(C.n_servers cluster));
          non_sequencer_client 10
      | C.Rpc_pair | C.Nfs_single ->
          C.run_until cluster 100.0;
          C.client cluster
    in
    let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
    let counters = ref [] in
    (* The metric counters plus disk writes summed over the replicas. *)
    let snapshot () =
      let writes i =
        Storage.Block_device.writes_completed (C.device cluster (i + 1))
      in
      let total =
        List.fold_left ( + ) 0 (List.init (C.n_servers cluster) writes)
      in
      ("disk.writes", total) :: Sim.Metrics.counters (C.metrics cluster)
    in
    Sim.Proc.boot (C.engine cluster) node (fun () ->
        let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
        Dirsvc.Client.append_row client cap ~name:"warm" [ cap ];
        Sim.Proc.sleep 100.0;
        let before = snapshot () in
        Dirsvc.Client.append_row client cap ~name:"counted" [ cap ];
        Sim.Proc.sleep 100.0;
        counters := Sim.Metrics.delta ~before ~after:(snapshot ()));
    C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 10_000.0);
    let get = moved !counters in
    let messages =
      List.map
        (fun kind -> (kind, get ("grp." ^ kind)))
        [ "req"; "data"; "ack"; "done" ]
    in
    let total = List.fold_left (fun acc (_, n) -> acc + n) 0 messages in
    printf "%s:\n" name;
    printf "  group messages: %s (total %d)\n"
      (String.concat " "
         (List.map (fun (kind, n) -> Printf.sprintf "%s=%d" kind n) messages))
      total;
    printf "  total wire packets: %d\n" (get "net.pkt");
    printf "  disk writes across replicas: %d\n\n" (get "disk.writes");
    J.Obj
      [
        ("service", J.String name);
        ( "group_messages",
          J.Obj
            (List.map (fun (kind, n) -> (kind, J.Int n)) messages
            @ [ ("total", J.Int total) ]) );
        ("wire_packets", J.Int (get "net.pkt"));
        ("disk_writes", J.Int (get "disk.writes"));
      ]
  in
  let services =
    [
      ( C.Group_disk,
        "Group service (paper: 5 messages, 2 disk ops at each replica)" );
      ( C.Group_nvram,
        "Group service + NVRAM (paper: no disk ops in the critical path)" );
      (C.Rpc_pair, "RPC service (paper: 2 RPCs of 3 messages, 3 disk ops)");
      (C.Nfs_single, "Sun NFS (1 RPC, 1 disk op)");
    ]
  in
  J.List (captured_map one_update services)

(* ---- Ablations ----------------------------------------------------- *)

(* A bare three-member group on its own engine and network: member 1
   creates it, members 2 and 3 join 2 and 3 ms later. At 30 ms [body]
   runs on member 2's node; the engine then runs to 2 s and the body's
   result is returned. *)
let with_group ~seed ?metrics config body =
  let engine = Sim.Engine.create ~seed () in
  let net = Simnet.Network.create engine ?metrics () in
  let members = Hashtbl.create 3 in
  let nodes = List.map (fun id -> Sim.Node.create ~id) [ 1; 2; 3 ] in
  List.iter
    (fun node ->
      let id = Sim.Node.id node in
      let nic = Simnet.Network.attach net node in
      Sim.Proc.boot engine node (fun () ->
          let m =
            if id = 1 then
              Group.Member.create_group ?metrics ~config net nic ~gname:"g"
            else begin
              Sim.Proc.sleep (float_of_int id);
              Group.Member.join_group ?metrics ~config net nic ~gname:"g"
            end
          in
          Hashtbl.replace members id m))
    nodes;
  let result = ref None in
  Sim.Engine.schedule engine ~delay:30.0 (fun () ->
      Sim.Proc.boot engine (List.nth nodes 1) (fun () ->
          result := Some (body (Hashtbl.find members 2))));
  Sim.Engine.run ~until:2_000.0 engine;
  Option.get !result

(* How long each of [n] back-to-back sends blocks, newest first. *)
let send_latencies m n payload =
  let samples = ref [] in
  for _ = 1 to n do
    let t0 = Sim.Proc.now () in
    Group.Member.send m payload;
    samples := (Sim.Proc.now () -. t0) :: !samples
  done;
  !samples

(* Raw SendToGroup latency of a three-member group at resilience r:
   how long the sender blocks before the message is held by r+1
   members. This is where the r trade-off is visible — the dir service
   buries it under disk time. *)
let raw_send_latency r =
  with_group ~seed:13L { Group.Types.default_config with resilience = r }
    (fun m -> mean (send_latencies m 30 (Simnet.Payload.Opaque "x")))

(* An experiment that is one table: [measure] runs on the pool for each
   of [items], one row each; [intro] prints above the table and [outro]
   below it. *)
let table_experiment ~intro ?(outro = ignore) cols measure items =
  print_string intro;
  let rows = pmap measure items in
  print_string (Spec.render cols rows);
  outro rows;
  Spec.to_json cols rows

(* Mean append+delete pair latency (ms) on a fresh deployment. *)
let pair_ms ~seed ?servers ?params ~repeats flavor =
  mean
    (Workload.Scenarios.append_delete ~repeats
       (C.create ~seed ?servers ?params flavor))

let ablation_r () =
  table_experiment
    ~intro:
      "\n== Ablation: resilience degree r vs update latency ==\n\
       (the paper's §1 trade-off: r buys fault tolerance with messages)\n\n"
    ~outro:(fun rows ->
      printf "\nraw SendToGroup completion latency (no disk in the way):\n";
      List.iter (fun (r, _, raw) -> printf "  r = %d: %.2f ms\n" r raw) rows;
      printf
        "disk time dominates end-to-end latency at any r - the paper's very \
         point.\n")
    [
      Spec.col "resilience" "resilience"
        (fun (r, _, _) -> Printf.sprintf "r = %d" r)
        (fun (r, _, _) -> J.Int r);
      Spec.float_col ~digits:1 "append-delete ms" "append_delete_ms"
        (fun (_, pair, _) -> pair);
      Spec.text_col "guarantee" (fun (r, _, _) ->
          match r with
          | 0 -> "send returns on ordering"
          | 1 -> "survives 1 crash"
          | _ -> "survives 2 crashes (paper default)");
      Spec.json_col "raw_send_ms" (fun (_, _, raw) -> J.Float raw);
    ]
    (fun r ->
      let params =
        { Dirsvc.Params.default with resilience_override = Some r }
      in
      let pair = pair_ms ~seed:23L ~params ~repeats:10 C.Group_disk in
      (r, pair, raw_send_latency r))
    [ 0; 1; 2 ]

let ablation_size () =
  table_experiment
    ~intro:
      "\n== Ablation: group size (3 vs 5 replicas) ==\n\
       (the paper: the protocol is unchanged for four or more replicas)\n\n"
    [
      Spec.col "group size" "replicas"
        (fun (n, _, _) -> Printf.sprintf "%d replicas" n)
        (fun (n, _, _) -> J.Int n);
      Spec.float_col ~digits:1 "append-delete ms" "append_delete_ms"
        (fun (_, pair, _) -> pair);
      Spec.float_col ~digits:2 "lookup ms" "lookup_ms" (fun (_, _, look) ->
          look);
    ]
    (fun n ->
      let cluster = C.create ~seed:29L ~servers:n C.Group_disk in
      let pair = mean (Workload.Scenarios.append_delete ~repeats:8 cluster) in
      (n, pair, mean (Workload.Scenarios.lookup ~repeats:20 cluster)))
    [ 3; 5 ]

let ablation_disk () =
  table_experiment
    ~intro:
      "\n== Ablation: disk latency scaling ==\n\
       (the paper §5: disk operations are the major bottleneck)\n\n"
    ~outro:(fun _ ->
      printf
        "the group service scales with the disk; the NVRAM service does not.\n")
    [
      Spec.col "disk speed" "disk_scale"
        (fun (scale, _, _) -> Printf.sprintf "%.2fx disk" scale)
        (fun (scale, _, _) -> J.Float scale);
      Spec.float_col ~digits:1 "group pair ms" "group_pair_ms"
        (fun (_, disk, _) -> disk);
      Spec.float_col ~digits:1 "nvram pair ms" "nvram_pair_ms"
        (fun (_, _, nvram) -> nvram);
    ]
    (fun scale ->
      let params = Dirsvc.Params.with_disk_scale Dirsvc.Params.default scale in
      let pair flavor = pair_ms ~seed:31L ~params ~repeats:8 flavor in
      (scale, pair C.Group_disk, pair C.Group_nvram))
    [ 0.25; 0.5; 1.0; 2.0 ]

(* ---- Ablation: PB vs BB dissemination ------------------------------ *)

(* The group substrate's two dissemination methods (Kaashoek & Tanenbaum
   ICDCS'91): PB forwards the full body through the sequencer; BB
   broadcasts the body from the sender and the sequencer emits only a
   tiny Accept. Count what the sequencer actually sends. *)
let ablation_method () =
  printf "\n== Ablation: PB vs BB dissemination ==\n\n";
  let run (key, dissemination, label) =
    let metrics = Sim.Metrics.create () in
    with_group ~seed:59L ~metrics
      { Group.Types.default_config with dissemination }
      (fun m ->
        let before = Sim.Metrics.counters metrics in
        let samples =
          send_latencies m 25 (Simnet.Payload.Opaque (String.make 1024 'x'))
        in
        let after = Sim.Metrics.counters metrics in
        let get = moved (Sim.Metrics.delta ~before ~after) in
        printf
          "  %-3s latency %.2f ms/send; sequencer forwards %d full bodies,                %d accepts; sender bodies %d\n"
          label (mean samples) (get "grp.data") (get "grp.accept")
          (get "grp.body");
        ( key,
          J.Obj
            [
              ("latency_ms_per_send", J.Float (mean samples));
              ("sequencer_bodies", J.Int (get "grp.data"));
              ("accepts", J.Int (get "grp.accept"));
              ("sender_bodies", J.Int (get "grp.body"));
            ] ))
  in
  let results =
    captured_map run
      [ ("pb", Group.Types.Pb, "PB:"); ("bb", Group.Types.Bb, "BB:") ]
  in
  printf
    "same ordering guarantees and latency; under BB the body crosses the\n\
     sequencer zero times - the win grows with message size.\n";
  J.Obj results

(* ---- Availability: unavailability window around failures ----------- *)

(* Not a paper figure, but the paper's availability claim made concrete:
   how long are clients refused while the group absorbs a crash, and how
   long until a restarted replica is back in the view? *)
let availability () =
  printf "\n== Availability: service interruption around failures ==\n\n";
  let run (victim, label) =
    let cluster = C.create ~seed:47L C.Group_disk in
    ignore (C.await_serving cluster ~count:3);
    let client = C.client cluster in
    let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
    let outage_start = ref nan and outage_end = ref nan in
    Sim.Proc.boot (C.engine cluster) node (fun () ->
        let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
        (* Probe with updates: writes must traverse the group, so they
           feel the view change (reads are served locally by any
           majority-side replica and sail straight through — itself a
           result worth noting). *)
        let serial = ref 0 in
        while Float.is_nan !outage_end && Sim.Proc.now () < 20_000.0 do
          incr serial;
          let name = Printf.sprintf "probe%d" !serial in
          (match
             Dirsvc.Client.append_row client cap ~name [ cap ];
             Dirsvc.Client.delete_row client cap ~name
           with
          | () ->
              if not (Float.is_nan !outage_start) then
                outage_end := Sim.Proc.now ()
          | exception _ ->
              if Float.is_nan !outage_start then
                outage_start := Sim.Proc.now ());
          Sim.Proc.sleep 10.0
        done);
    Sim.Engine.schedule (C.engine cluster) ~delay:500.0 (fun () ->
        C.crash_server cluster victim);
    C.run_until cluster 22_000.0;
    let t_restart = Sim.Engine.now (C.engine cluster) in
    C.restart_server cluster victim;
    ignore (C.await_serving ~timeout:20_000.0 cluster ~count:3);
    let rejoin = Sim.Engine.now (C.engine cluster) -. t_restart in
    (* None: the outage did not end within the run. *)
    let outage =
      if Float.is_nan !outage_start then Some 0.0
      else if Float.is_nan !outage_end then None
      else Some (!outage_end -. !outage_start)
    in
    (match outage with
    | Some 0.0 ->
        printf "  %-28s no client-visible outage; rejoin %.0f ms\n" label
          rejoin
    | Some ms ->
        printf "  %-28s outage %.0f ms; rejoin %.0f ms\n" label ms rejoin
    | None -> printf "  %-28s outage did not end within the run\n" label);
    J.Obj
      [
        ("scenario", J.String label);
        ("outage_ms", match outage with Some ms -> J.Float ms | None -> J.Null);
        ("rejoin_ms", J.Float rejoin);
      ]
  in
  let results =
    captured_map run
      [ (3, "follower server crash:"); (1, "sequencer-hosting crash:") ]
  in
  printf
    "(outage = first refused update to first completed update; crash at t=500;\n lookups are served locally by the survivors and see no outage)\n";
  J.List results

(* ---- Bechamel microbenchmarks: one Test.make per table/figure ------ *)

let micro () =
  printf "\n== Bechamel microbenchmarks (real time, hot paths) ==\n\n";
  let open Bechamel in
  let module D = Dirsvc.Directory in
  let secret = Capability.mint_secret 1L in
  let dir_store, dir_cap =
    match
      D.apply D.empty ~seqno:1
        (D.Create_dir { columns = [ "owner"; "other" ]; secret; hint = None })
    with
    | Ok (store, D.Created id) ->
        (store, Capability.owner ~port:"dirsvc" ~obj:id secret)
    | _ -> assert false
  in
  let append name =
    D.Append_row { cap = dir_cap; name; caps = [ dir_cap ]; masks = [] }
  in
  let populated =
    List.fold_left
      (fun store i ->
        match
          D.apply store ~seqno:(i + 2) (append (Printf.sprintf "row%d" i))
        with
        | Ok (store, _) -> store
        | Error _ -> store)
      dir_store
      (List.init 20 Fun.id)
  in
  let dir = D.Store.find 0 populated in
  let encoded = D.encode_dir dir in
  let case name f = Test.make ~name (Staged.stage (fun () -> ignore (f ()))) in
  let peer server useq stayed_up =
    {
      Dirsvc.Skeen.server;
      mourned = Dirsvc.Skeen.Int_set.singleton 3;
      useq;
      stayed_up;
      serving = false;
    }
  in
  let tests =
    [
      (* Fig. 7's inner loop: one update applied to the store. *)
      case "fig7: Directory.apply append" (fun () ->
          D.apply populated ~seqno:99 (append "bench"));
      (* Fig. 8's inner loop: a lookup against the cached directory. *)
      case "fig8: Directory.lookup" (fun () ->
          D.lookup populated ~cap:dir_cap ~name:"row7" ~column:0);
      (* Fig. 9's commit path: encode/decode of the Bullet file image. *)
      case "fig9: encode_dir (commit image)" (fun () -> D.encode_dir dir);
      case "fig9: decode_dir (recovery load)" (fun () -> D.decode_dir encoded);
      (* The §3.1 analysis rests on per-request capability checks. *)
      case "costs: capability validate" (fun () ->
          Capability.validate dir_cap secret);
      (* Recovery's decision procedure (Fig. 6). *)
      case "recovery: Skeen.decide" (fun () ->
          Dirsvc.Skeen.decide ~all:[ 1; 2; 3 ]
            ~present:[ peer 1 10 true; peer 2 11 false ]);
    ]
  in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test
  in
  let analyse raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let estimates =
    List.concat_map
      (fun test ->
        let results = analyse (benchmark test) in
        Hashtbl.fold
          (fun name result acc ->
            match Analyze.OLS.estimates result with
            | Some [ est ] ->
                printf "  %-36s %10.1f ns/op\n" name est;
                (name, J.Float est) :: acc
            | _ ->
                printf "  %-36s (no estimate)\n" name;
                (name, J.Null) :: acc)
          results [])
      tests
  in
  J.Obj estimates

(* ---- Mixed workload ------------------------------------------------- *)

(* The paper's measured workload: 98% of directory operations are reads
   (§2). Aggregate throughput under the realistic mix. *)
let mix () =
  table_experiment
    ~intro:"\n== Mixed workload: 98% reads / 2% updates (paper §2) ==\n\n"
    Workload.Mix.
      [
        Spec.col "service" "service" fst (fun (name, _) -> J.String name);
        Spec.float_col ~digits:0 "ops/s" "ops_per_second" (fun (_, p) ->
            p.ops_per_second);
        Spec.float_col ~digits:0 "reads/s" "reads_per_second" (fun (_, p) ->
            p.reads_per_second);
        Spec.float_col ~digits:1 "writes/s" "writes_per_second" (fun (_, p) ->
            p.writes_per_second);
      ]
    (fun (flavor, name) ->
      let cluster = C.create ~seed:55L flavor in
      (name, Workload.Mix.run cluster ~clients:5 ~read_fraction:0.98))
    Spec.flavors

(* ---- Speed: wall-clock throughput of the simulation core ----------- *)

(* Unlike every experiment above, this one measures {e real} time: how
   many engine events and wire packets the simulator grinds through per
   wall-clock second, and how much it allocates per simulated operation.
   Simulated-time results are identical across optimization PRs (the
   same-seed trace guarantee); this is the number that is allowed to
   move. [--quick] shrinks every scenario to a ~1 s smoke check. *)

let ops (t : Spec.timed) = t.result.point.Workload.Throughput.total_ops

let per_op (t : Spec.timed) v =
  if ops t = 0 then None else Some (v /. float_of_int (ops t))

let wall_col =
  Spec.float_col ~digits:3 "wall s" "wall_s" (fun (t : Spec.timed) -> t.wall_s)

let ops_col = Spec.int_col "ops" "ops" ops

let events_col =
  Spec.json_col "events" (fun t -> J.Int (Spec.events t.Spec.result))

let minor_cols =
  [
    Spec.json_col "minor_words" (fun (t : Spec.timed) -> J.Float t.minor_words);
    Spec.opt_col ~digits:0 "minor w/op" "minor_words_per_op" (fun t ->
        per_op t t.Spec.minor_words);
  ]

let scenario_cols =
  let packets t = Spec.count t.Spec.result "net.pkt" in
  [
    Spec.col "scenario" "scenario"
      (fun (t : Spec.timed) -> t.scenario.name)
      (fun t -> J.String t.scenario.name);
    wall_col;
    events_col;
    Spec.float_col ~digits:0 "events/s" "events_per_sec" (fun t ->
        float_of_int (Spec.events t.Spec.result) /. t.wall_s);
    Spec.json_col "packets" (fun t -> J.Int (packets t));
    Spec.float_col ~digits:0 "packets/s" "packets_per_sec" (fun t ->
        float_of_int (packets t) /. t.wall_s);
    ops_col;
  ]
  @ minor_cols

(* Group commit on vs off. batch = 1 is the unbatched protocol: its
   servers commit once per update by construction and the
   [dirsvc.commit] counter does not exist, so commits/op is reported
   only for batched runs. *)
let batch_max (t : Spec.timed) = t.scenario.params.Dirsvc.Params.batch_max

let batch_cols =
  [
    Spec.int_col "batch" "batch_max" batch_max;
    wall_col;
    ops_col;
    events_col;
    Spec.opt_col ~digits:1 "events/op" "events_per_op" (fun t ->
        per_op t (float_of_int (Spec.events t.result)));
    Spec.opt_col ~digits:3 "commits/op" "commits_per_op" (fun t ->
        if batch_max t <= 1 then None
        else per_op t (float_of_int (Spec.count t.result "dirsvc.commit")));
  ]
  @ minor_cols

let speed () =
  let quick = !quick in
  printf "\n== Speed: wall-clock throughput of the simulation core ==\n";
  printf "(real seconds%s; simulated results are seed-identical)\n\n"
    (if quick then ", --quick" else "");
  let rows = List.map (Spec.timed ~quick) Spec.speed_scenarios in
  print_string (Spec.render scenario_cols rows);
  (* The scaled scenario is the batch = 1 row. *)
  let batch_rows =
    List.nth rows 3
    :: List.map
         (fun b -> Spec.timed ~quick (Spec.batched b))
         (if quick then [ 4 ] else [ 4; 8 ])
  in
  printf "\nbatch-efficiency: scaled update scenario, group commit on/off\n";
  print_string (Spec.render batch_cols batch_rows);
  (* Wall clock of the whole figure grid at 1/2/4 domains, each on a
     private pool. Runs after the shared pool has drained (the driver
     sequences the speed experiment behind every parallel one), so
     nothing else competes for the cores. *)
  let scaling =
    List.map
      (fun jobs -> (jobs, Spec.pool_wall ~jobs (Spec.grid_thunks ~quick)))
      [ 1; 2; 4 ]
  in
  let base_wall = snd (List.hd scaling) in
  let scaling_cols =
    [
      Spec.int_col "jobs" "jobs" fst;
      Spec.float_col ~digits:3 "grid wall s" "grid_wall_s" snd;
      Spec.col "speedup" "speedup"
        (fun (_, wall) -> Printf.sprintf "%.2fx" (base_wall /. wall))
        (fun (_, wall) -> J.Float (base_wall /. wall));
    ]
  in
  printf "\njobs-scaling: full figure grid wall clock (%d cores available)\n"
    (Domain.recommended_domain_count ());
  print_string (Spec.render scaling_cols scaling);
  J.Obj
    [
      ("quick", J.Bool quick);
      ("cores", J.Int (Domain.recommended_domain_count ()));
      ("batch_efficiency", Spec.to_json batch_cols batch_rows);
      ("jobs_scaling", Spec.to_json scaling_cols scaling);
      ("scenarios", Spec.to_json scenario_cols rows);
    ]

(* ---- Shards: throughput vs shard count (fixed replica budget) ------ *)

(* A row is a shard count with its per-seed results (throughput point,
   cross-shard commits, op histograms); the columns average the seeds
   and take the first seed's histograms. *)
let seed_mean f (_, results) = mean (List.map f results)

let shard_rate = seed_mean (fun (p, _, _) -> p.Workload.Throughput.per_second)

(* The update-only table's text columns, the cross-mix table's, and the
   JSON columns of both; speedups are against the one-shard [base]. *)
let shard_cols ~base =
  let mean_col header key f =
    Spec.float_col ~digits:0 header key (seed_mean f)
  in
  let shards = Spec.int_col "shards" "shards" fst
  and servers =
    Spec.int_col "servers/shard" "servers_per_shard" (fun (m, _) ->
        Spec.shard_budget / m)
  and per_second = Spec.float_col ~digits:0 "updates/s" "per_second" shard_rate
  and ops =
    mean_col "ops" "total_ops" (fun (p, _, _) ->
        float_of_int p.Workload.Throughput.total_ops)
  and errors =
    mean_col "errors" "errors" (fun (p, _, _) ->
        float_of_int p.Workload.Throughput.errors)
  and xcommits =
    mean_col "x-commits" "cross_shard_commits" (fun (_, c, _) -> float_of_int c)
  and speedup =
    (* A --quick window can measure 0 ops/s at the slow end: no ratio. *)
    let ratio r = if base > 0.0 then Some (shard_rate r /. base) else None in
    Spec.col "speedup" "speedup_vs_1"
      (fun r ->
        match ratio r with Some s -> Printf.sprintf "%.2fx" s | None -> "-")
      (fun r -> match ratio r with Some s -> J.Float s | None -> J.Null)
  and hists =
    Spec.json_col "op_histograms" (fun (_, results) ->
        match results with (_, _, h) :: _ -> h | [] -> J.Null)
  in
  ( [ shards; servers; per_second; ops; speedup ],
    [ shards; per_second; ops; speedup; xcommits; errors ],
    [ shards; servers; per_second; ops; errors; xcommits; speedup; hists ] )

let shards_experiment () =
  let quick = !quick in
  let clients, window, cross_period = Spec.shards_size ~quick in
  printf "\n== Shards: update throughput vs shard count (%d-server budget) ==\n"
    Spec.shard_budget;
  printf "(%d clients, %.0f ms window%s; mean of 3 seeds)\n\n" clients window
    (if quick then ", --quick" else "");
  (* Both columns fan out over the pool before either joins. *)
  let submit ~cross ~base =
    List.map
      (fun m ->
        ( m,
          List.map
            (fun seed ->
              psubmit (fun () ->
                  let r = Spec.run ~quick (Spec.shards_point ~cross ~m seed) in
                  ( r.point,
                    Spec.count r "dirsvc.cross_shard",
                    histogram_summaries (C.metrics r.cluster) )))
            (Spec.replicate_seeds base) ))
      [ 1; 2; 4 ]
  in
  let upd = submit ~cross:false ~base:4200L in
  let cross = submit ~cross:true ~base:4300L in
  let join futures =
    let rows =
      List.map (fun (m, futs) -> (m, List.map Sim.Pool.await futs)) futures
    in
    (rows, shard_cols ~base:(shard_rate (List.hd rows)))
  in
  let upd, (upd_cols, _, upd_json) = join upd in
  let cross, (_, cross_cols, cross_json) = join cross in
  printf "update-only (append+delete pairs, cross_period = 0):\n";
  print_string (Spec.render upd_cols upd);
  printf "\ncross-shard mix (every %dth iteration moves a row):\n" cross_period;
  print_string (Spec.render cross_cols cross);
  J.Obj
    [
      ("quick", J.Bool quick);
      ("budget_servers", J.Int Spec.shard_budget);
      ("clients", J.Int clients);
      ("window_ms", J.Float window);
      ("seeds_per_point", J.Int 3);
      ("cross_period", J.Int cross_period);
      ("update_only", Spec.to_json upd_json upd);
      ("cross_mix", Spec.to_json cross_json cross);
    ]

(* ---- Driver --------------------------------------------------------- *)

let experiments =
  [
    ("fig7", "Fig. 7: single-client latency per service", fig7);
    ("fig8", "Fig. 8: lookup throughput vs clients", fig8);
    ("fig9", "Fig. 9: append-delete throughput vs clients", fig9);
    ("costs", "§3.1: messages and disk writes per update", costs);
    ("ablation-r", "resilience degree vs update latency", ablation_r);
    ("ablation-size", "3 vs 5 replicas", ablation_size);
    ("ablation-disk", "disk latency scaling", ablation_disk);
    ("mix", "98% reads / 2% updates throughput", mix);
    ("availability", "outage and rejoin around a crash", availability);
    ("ablation-method", "PB vs BB dissemination", ablation_method);
    ("micro", "Bechamel microbenchmarks (real time)", micro);
    ("shards", "update throughput vs shard count", shards_experiment);
    ("speed", "simulator wall-clock speed (real time)", speed);
  ]

let known name = List.exists (fun (n, _, _) -> n = name) experiments

(* --json [FILE]: machine-readable output. Each experiment's record is
   written to BENCH_<name>.json (dashes mapped to underscores), and one
   aggregate document is printed on stdout — and also written to FILE when
   given. A bare token after --json is taken as the FILE unless it names
   an experiment. *)
type json_mode = Text | Json of string option

(* The two real-time experiments must not share the machine with the
   simulated-time grid: they run on the coordinator after every parallel
   experiment has been joined. *)
let timing_experiments = [ "micro"; "speed" ]

let write_file path doc =
  let oc = open_out path in
  output_string oc (J.to_string_pretty doc);
  output_char oc '\n';
  close_out oc

let () =
  let int_flag flag value rest k =
    match int_of_string_opt value with
    | Some n when n >= 1 -> k n rest
    | _ ->
        Printf.eprintf "%s expects a positive integer, got %S\n" flag value;
        exit 2
  in
  let rec parse names mode = function
    | [] -> (List.rev names, mode)
    | "--quick" :: rest ->
        quick := true;
        parse names mode rest
    | "--jobs" :: value :: rest ->
        int_flag "--jobs" value rest (fun n rest ->
            jobs_level := n;
            parse names mode rest)
    | "--seeds" :: value :: rest ->
        int_flag "--seeds" value rest (fun n rest ->
            seed_count := n;
            parse names mode rest)
    | "--json" :: rest -> (
        match rest with
        | path :: rest'
          when (not (known path)) && String.length path > 0 && path.[0] <> '-'
          ->
            parse names (Json (Some path)) rest'
        | _ -> parse names (Json None) rest)
    | name :: rest -> parse (name :: names) mode rest
  in
  let requested, mode = parse [] Text (List.tl (Array.to_list Sys.argv)) in
  let requested =
    if requested = [] then List.map (fun (n, _, _) -> n) experiments
    else requested
  in
  List.iter
    (fun name ->
      if not (known name) then begin
        Printf.eprintf
          "unknown experiment %S\n\
           usage: main.exe [EXPERIMENT...] [--quick] [--jobs N] [--seeds K] \
           [--json [FILE]]\n\
           experiments (default: all):\n"
          name;
        List.iter
          (fun (name, what, _) -> Printf.eprintf "  %-16s %s\n" name what)
          experiments;
        exit 1
      end)
    requested;
  (match mode with Json _ -> quiet := true | Text -> ());
  (* Stage: submit every parallel experiment (captured, so its prints
     replay in order), keep the real-time ones for the coordinator. With
     --jobs 1 submission runs everything inline in submission order, so
     the emitted bytes are identical at any jobs level. *)
  let staged =
    List.map
      (fun name ->
        let _, _, f = List.find (fun (n, _, _) -> n = name) experiments in
        if List.mem name timing_experiments then (name, f, None)
        else (name, f, Some (submit_captured f)))
      requested
  in
  let drain (_, _, fut) =
    Option.iter (fun fut -> try ignore (Sim.Pool.await fut) with _ -> ()) fut
  in
  let results =
    List.map
      (fun (name, f, fut) ->
        let value =
          match fut with
          | Some fut -> replay fut
          | None ->
              List.iter drain staged;
              f ()
        in
        (match mode with
        | Json _ ->
            write_file
              (Printf.sprintf "BENCH_%s.json" (underscored name))
              (J.Obj [ ("experiment", J.String name); ("result", value) ])
        | Text -> ());
        (name, value))
      staged
  in
  Sim.Pool.shutdown (Lazy.force pool);
  match mode with
  | Text -> ()
  | Json target ->
      Option.iter (fun path -> write_file path (J.Obj results)) target;
      Stdlib.print_string (J.to_string_pretty (J.Obj results));
      Stdlib.print_newline ()
