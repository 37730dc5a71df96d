(* The repository benchmark: three workloads against the simulated
   directory service, driven only through public APIs (Cluster, Client,
   Sim.Metrics, Engine.events_executed, Gc and a Sim.Trace sink).

     perfbench.exe --workload W --seed N --seconds S --trace 0|1

   A scenario is deterministic in simulated time: every simulated metric
   is a pure function of (workload, seed). Host metrics are the noisy
   ones, so a run repeats the same seeded scenario, as often as
   [--seconds] allows at the workload's nominal pace (see [cpu_s] and
   [calibrate] for how host time is reported); every repetition
   must reproduce the first one's simulated metrics exactly, or the run
   is not correct.
   [--trace 1] alternates untraced and traced repetitions, checks that
   tracing moves no simulated metric, and reports the per-layer metrics
   (see Layers). The last stdout line is one JSON object:
   {correct, attempted, failed, metrics}. *)

module Cluster = Dirsvc.Cluster
module Client = Dirsvc.Client

(* ---- workloads --------------------------------------------------------- *)

(* Offered load: open loop with Poisson arrivals round-robin over the
   client machines, or a closed loop of callers that each wait for their
   reply and back off after a failure. *)
type load = Open of { rate : float } | Closed of { backoff_ms : float }

(* Per-arrival op mix in percent: a lookup of a seeded row, an
   append+delete pair, or an append+move+delete between a client's two
   directories. A move is made only when due [moves_after_crash_ms]
   (from, until) after a crash, otherwise a pair is made instead (see
   [shard_failover]); [None]: moves at any time. *)
type mix = {
  lookup_pct : int;
  pair_pct : int;
  move_pct : int;
  moves_after_crash_ms : (float * float) option;
}

(* A server crashed [count] times, [period_ms] apart, each time restarted
   [down_ms] later. [in_window] crashes are part of the measured load;
   otherwise they form a failover phase after the window, once the load
   has stopped, and only [outage_ms] is taken from them. *)
type crashes = {
  shard : int;
  server : int;
  in_window : bool;
  first_ms : float;
  period_ms : float;
  down_ms : float;
  count : int;
}

(* Capacity search: open loop of the workload's mix (no crashes) on a
   geometric rate ladder. A rate meets the SLO when at most 1% of the
   SLO's ops (lookups if the mix has any, else updates) fail or take
   longer than [limit_ms], at most 1% of all calls fail, and the
   generator's backlog does not grow. *)
type ladder = {
  deployments : int;  (** climbs, each on its own seed; the mean is reported *)
  base_rate : float;
  step : float;  (** rate ratio between rungs, at most 1.10 *)
  rungs : int;
  arrivals : int;  (** arrivals measured per rung *)
  limit_ms : float;
}

type workload = {
  name : string;
  servers : int;
  shards : int;
  clients : int;
  dirs_per_client : int;
  seeded_rows : int;  (** rows per directory that lookups read back *)
  load : load;
  mix : mix;
  cells : int;  (** deployments the window is spread over, seeds derived *)
  warmup_ms : float;
  window_ms : float;  (** per cell *)
  crashes : crashes;  (** per cell *)
  ladder : ladder;
  rep_s : float;
      (** nominal wall seconds each repetition of the scenario adds to a
          run (the ladder's share included): a run makes
          [--seconds / rep_s] of them, at least two *)
}

(* §2's measured traffic on the paper's deployment: 98% lookups. *)
let read_mostly =
  {
    name = "read_mostly";
    servers = 3;
    shards = 1;
    clients = 15;
    dirs_per_client = 1;
    seeded_rows = 4;
    load = Open { rate = 40.0 };
    mix = { lookup_pct = 98; pair_pct = 2; move_pct = 0; moves_after_crash_ms = None };
    cells = 1;
    warmup_ms = 10_000.0;
    window_ms = 2_500_000.0;
    crashes =
      {
        shard = 0;
        server = 1;
        in_window = false;
        first_ms = 2_000.0;
        period_ms = 20_000.0;
        down_ms = 10_000.0;
        count = 5;
      };
    ladder =
      { deployments = 16; base_rate = 20.0; step = 1.05; rungs = 30; arrivals = 5_000; limit_ms = 250.0 };
    rep_s = 7.5;
  }

(* Callers that each wait for a reply, driven past saturation: every
   client loops append+delete on its own directory. *)
let write_heavy =
  {
    name = "write_heavy";
    servers = 5;
    shards = 1;
    clients = 50;
    dirs_per_client = 1;
    seeded_rows = 0;
    load = Closed { backoff_ms = 5.0 };
    mix = { lookup_pct = 0; pair_pct = 100; move_pct = 0; moves_after_crash_ms = None };
    cells = 1;
    warmup_ms = 2_000.0;
    window_ms = 100_000.0;
    crashes =
      {
        shard = 0;
        server = 1;
        in_window = false;
        first_ms = 5_000.0;
        period_ms = 20_000.0;
        down_ms = 10_000.0;
        count = 20;
      };
    ladder =
      { deployments = 3; base_rate = 1.0; step = 1.05; rungs = 40; arrivals = 1_000; limit_ms = 1_000.0 };
    rep_s = 15.0;
  }

(* Two replica groups; one shard's first server is crashed and restarted
   periodically while the other keeps serving. Moves are made only in
   the first 4 s after a crash, 6 s before the restart: a move still
   staged when the crashed server rejoins makes the shard diverge
   (staged transactions are not part of recovery state transfer), which
   [shard_failover_anytime_moves] reproduces. *)
let shard_failover =
  {
    name = "shard_failover";
    servers = 3;
    shards = 2;
    clients = 15;
    dirs_per_client = 2;
    seeded_rows = 4;
    load = Open { rate = 20.0 };
    mix =
      { lookup_pct = 90; pair_pct = 8; move_pct = 2; moves_after_crash_ms = Some (0.0, 4_000.0) };
    cells = 8;
    warmup_ms = 10_000.0;
    window_ms = 560_000.0;
    crashes =
      {
        shard = 1;
        server = 1;
        in_window = true;
        first_ms = 5_000.0;
        period_ms = 20_000.0;
        down_ms = 10_000.0;
        count = 28;
      };
    ladder =
      { deployments = 8; base_rate = 12.0; step = 1.05; rungs = 24; arrivals = 2_000; limit_ms = 250.0 };
    rep_s = 15.0;
  }

(* Not a benchmark workload: [shard_failover] with moves at any time.
   Some seeds (2, 3, 6 and 9 among 1-10) fail the convergence check. *)
let shard_failover_anytime_moves =
  {
    shard_failover with
    name = "shard_failover_anytime_moves";
    mix = { lookup_pct = 90; pair_pct = 8; move_pct = 2; moves_after_crash_ms = None };
  }

let workloads = [ read_mostly; write_heavy; shard_failover; shard_failover_anytime_moves ]

(* ---- one scenario ------------------------------------------------------ *)

type expect = Present | Absent | Either

type cli = {
  client : Client.t;
  node : Sim.Node.t;
  dirs : Capability.t array;
  seeded : (Capability.t * string * Capability.t) array;
      (** (directory, row name, the capability stored under it) *)
}

type stats = {
  reads : Samples.t;
  updates : Samples.t;
  mutable attempted : int;
  mutable failed : int;
  mutable read_attempted : int;
  mutable read_failed : int;
  mutable not_located : int;
  mutable no_reply : int;
  mutable unavailable : int;
}

type run = {
  w : workload;
  cl : Cluster.t;
  engine : Sim.Engine.t;
  st : stats;
  mutable t_start : float;
  mutable t_end : float;
  mutable crash_from : float;  (** crashes are scheduled from here; infinity: none *)
  model : (string * int * string, expect) Hashtbl.t;
  mutable moved : (Capability.t * Capability.t * string) list;
  mutable violations : string list;
  mutable next_name : int;
  mutable failures : int;  (** every failed call, measured or not *)
  mutable slo_missed : int;  (** measured SLO calls that failed or took over the ladder limit *)
  mutable outstanding : int;
  mutable max_outstanding : int;
  backlog : float array;  (** outstanding ops summed at arrivals, per third *)
  backlog_n : int array;
  mutable outages : float list;
  mutable restarts : (int * float) list;
}

let violation r fmt = Printf.ksprintf (fun s -> r.violations <- s :: r.violations) fmt

let set_expect r (cap : Capability.t) name e = Hashtbl.replace r.model (cap.port, cap.obj, name) e

let fresh_name r =
  r.next_name <- r.next_name + 1;
  Printf.sprintf "u%d" r.next_name

let in_window r t = t >= r.t_start && t < r.t_end

let now r = Sim.Engine.now r.engine

(* One Client call started at [t0] (an open-loop arrival's first call is
   timed from when it was due). A measured call counts once as
   attempted; a failure is classified by exception and counts as missing
   every latency limit. Returns the result, or [None] on failure. *)
let call r ~counted ~read ~t0 f =
  if counted then begin
    r.st.attempted <- r.st.attempted + 1;
    if read then r.st.read_attempted <- r.st.read_attempted + 1
  end;
  let slo = counted && read = (r.w.mix.lookup_pct > 0) in
  match f () with
  | v ->
      let took = now r -. t0 in
      if counted then Samples.add (if read then r.st.reads else r.st.updates) took;
      if slo && took > r.w.ladder.limit_ms then r.slo_missed <- r.slo_missed + 1;
      Some v
  | exception ((Rpc.Transport.Rpc_failure _ | Dirsvc.Wire.Dir_error _) as e) ->
      r.failures <- r.failures + 1;
      if slo then r.slo_missed <- r.slo_missed + 1;
      if counted then begin
        let st = r.st in
        st.failed <- st.failed + 1;
        if read then st.read_failed <- st.read_failed + 1;
        match e with
        | Rpc.Transport.Rpc_failure m when String.ends_with ~suffix:"not located" m ->
            st.not_located <- st.not_located + 1
        | Rpc.Transport.Rpc_failure _ -> st.no_reply <- st.no_reply + 1
        | _ -> st.unavailable <- st.unavailable + 1
      end;
      None

let do_lookup r c ~counted ~t0 ((dir : Capability.t), name, want) =
  match call r ~counted ~read:true ~t0 (fun () -> Client.lookup c.client dir name) with
  | Some (Some (got, _)) when Capability.equal got want -> ()
  | Some _ -> violation r "lookup %s/%d/%s did not return its seeded row" dir.port dir.obj name
  | None -> ()

let update r ~counted ~t0 f = Option.is_some (call r ~counted ~read:false ~t0 f)

(* Append+delete of a fresh row. Returns whether the append succeeded. *)
let do_pair r c ~counted ~t0 dir =
  let name = fresh_name r in
  set_expect r dir name Either;
  let appended = update r ~counted ~t0 (fun () -> Client.append_row c.client dir ~name [ dir ]) in
  if appended && update r ~counted ~t0:(now r) (fun () -> Client.delete_row c.client dir ~name)
  then set_expect r dir name Absent;
  appended

let do_move r c ~counted ~t0 src dst =
  let name = fresh_name r in
  set_expect r src name Either;
  if update r ~counted ~t0 (fun () -> Client.append_row c.client src ~name [ src ]) then begin
    set_expect r dst name Either;
    r.moved <- (src, dst, name) :: r.moved;
    if update r ~counted ~t0:(now r) (fun () -> Client.move_row c.client ~src ~dst ~name) then begin
      set_expect r src name Absent;
      if update r ~counted ~t0:(now r) (fun () -> Client.delete_row c.client dst ~name) then
        set_expect r dst name Absent
    end
  end

(* An arrival's op is drawn by the generator, so the op sequence is a
   pure function of the benchmark seed. *)
type op = Lookup of int | Pair of int | Move of int

let draw_op w rng =
  let p = Sim.Rng.int rng 100 in
  let d = Sim.Rng.int rng 1_000_000 in
  if p < w.mix.lookup_pct then Lookup d
  else if p < w.mix.lookup_pct + w.mix.pair_pct then Pair d
  else Move d

(* Whether a move due at [t] is made (see [mix]). *)
let moves_allowed r t =
  let c = r.w.crashes in
  match r.w.mix.moves_after_crash_ms with
  | None -> true
  | Some (a, b) ->
      let since_first = t -. (r.crash_from +. c.first_ms) in
      since_first >= 0.0
      && since_first < float_of_int c.count *. c.period_ms
      &&
      let since = Float.rem since_first c.period_ms in
      since >= a && since < b

let run_op r c ~t0 op =
  let counted = in_window r t0 in
  match op with
  | Lookup d -> do_lookup r c ~counted ~t0 c.seeded.(d mod Array.length c.seeded)
  | Pair d -> ignore (do_pair r c ~counted ~t0 c.dirs.(d mod Array.length c.dirs))
  | Move d when not (moves_allowed r t0) ->
      ignore (do_pair r c ~counted ~t0 c.dirs.(d mod Array.length c.dirs))
  | Move d ->
      let i = d mod 2 in
      do_move r c ~counted ~t0 c.dirs.(i) c.dirs.(1 - i)

(* Advance the clock to [t]; other drivers may stop the engine early. *)
let advance r t =
  let rec go () =
    let before = Sim.Engine.events_executed r.engine in
    Cluster.run_until r.cl t;
    if now r < t && Sim.Engine.events_executed r.engine > before then go ()
  in
  go ()

(* Run [f] on [c]'s machine and drive the engine until it returns. *)
let on_client r c f =
  let finished = Sim.Ivar.create () in
  let result = ref None in
  Sim.Proc.boot r.engine c.node (fun () ->
      result := Some (match f () with v -> Ok v | exception e -> Error e);
      Sim.Ivar.fill finished ());
  if not (Sim.Drive.run_until_filled ~quantum:1_000.0 ~max_quanta:600 r.engine finished) then
    failwith "set-up step did not finish";
  match Option.get !result with Ok v -> v | Error e -> raise e

(* A placement name that the partition map sends to [shard]. *)
let placement w ~shard tag =
  let rec find k =
    let name = Printf.sprintf "%s.%d" tag k in
    if Dirsvc.Shard_router.shard_of_name ~shards:w.shards name = shard then name
    else find (k + 1)
  in
  find 0

(* Set-up runs one client at a time, so set-up itself cannot starve:
   create the client's directories and seed the rows lookups read back.
   A failed step is retried. *)
let setup_client r i ~shards =
  let client = Cluster.client r.cl in
  let c0 =
    { client; node = Rpc.Transport.node (Client.transport client); dirs = [||]; seeded = [||] }
  in
  let rec retry n f =
    match on_client r c0 f with
    | v -> v
    | exception (Rpc.Transport.Rpc_failure _ | Dirsvc.Wire.Dir_error _) when n > 0 ->
        retry (n - 1) f
  in
  let dirs =
    Array.map
      (fun shard ->
        let placement = placement r.w ~shard (Printf.sprintf "c%d.s%d" i shard) in
        retry 5 (fun () -> Client.create_dir ~placement client ~columns:[ "owner" ]))
      shards
  in
  let seed_rows (dir : Capability.t) =
    Array.init r.w.seeded_rows (fun k ->
        let name = Printf.sprintf "s%d" k in
        let target =
          Capability.owner ~port:"object" ~obj:((i * 1000) + k)
            (Int64.of_int ((dir.obj * 7919) + k))
        in
        retry 5 (fun () -> Client.append_row client dir ~name [ target ]);
        set_expect r dir name Present;
        (dir, name, target))
  in
  { c0 with dirs; seeded = Array.concat (List.map seed_rows (Array.to_list dirs)) }

let new_stats () =
  {
    reads = Samples.create ();
    updates = Samples.create ();
    attempted = 0;
    failed = 0;
    read_attempted = 0;
    read_failed = 0;
    not_located = 0;
    no_reply = 0;
    unavailable = 0;
  }

let create_run w ~seed ~st =
  let params = { Dirsvc.Params.default with shards = w.shards } in
  let cl =
    Cluster.create ~seed:(Int64.of_int seed) ~params ~servers:w.servers Cluster.Group_disk
  in
  {
    w;
    cl;
    engine = Cluster.engine cl;
    st;
    t_start = infinity;
    t_end = infinity;
    crash_from = infinity;
    model = Hashtbl.create 1024;
    moved = [];
    violations = [];
    next_name = 0;
    failures = 0;
    slo_missed = 0;
    outstanding = 0;
    max_outstanding = 0;
    backlog = Array.make 3 0.0;
    backlog_n = Array.make 3 0;
    outages = [];
    restarts = [];
  }

(* Host time is process CPU time: the machine is shared, and CPU time
   does not count the time the process waits for a core. Other tenants
   still stretch it by a third or more for minutes at a time, so every
   host metric is timed in steps (set-up steps, slices of the window)
   that are identical work in every repetition of a run, and reported
   as the sum over steps of the fastest repetition of each step:
   interference only ever adds time, and a quiet moment for each step
   is far likelier than for a whole repetition. *)
let cpu_s () = Sys.time ()

(* A fixed piece of work, independent of the system under test, that
   does what the simulator spends its time on: a priority queue of
   timed events, hash-table updates and short-lived allocation, then a
   chain of dependent loads through memory larger than the caches (the
   simulator's heap is megabytes). It is timed after every
   [calibrate_every]th slice of the window; a slowdown of the whole
   machine stretches it as it stretches the window, so each
   repetition's slices are scaled by [calibration_ref_s] / (its median
   time in that repetition) before the fastest are taken. *)
module Iq = Map.Make (Int)

let calibration_ref_s = 0.006

(* A random cyclic permutation of 2^21 ints (16 MB, outside the OCaml
   heap, so it is not in [live_heap_words]), built once. *)
let chain =
  lazy
    (let n = 1 lsl 21 in
     let a = Bigarray.Array1.init Bigarray.int Bigarray.c_layout n Fun.id in
     let x = ref 7 in
     for i = n - 1 downto 1 do
       x := ((!x * 1103515245) + 12345) land 0x3fffffff;
       let j = !x mod i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

(* CPU seconds and minor words one pass of the calibration work takes. *)
let calibrate () =
  let chain = Lazy.force chain in
  let w0 = Gc.minor_words () in
  let t0 = cpu_s () in
  let q = ref Iq.empty and tbl = Hashtbl.create 1024 and x = ref 1 in
  for i = 0 to 1023 do
    q := Iq.add ((i * 7919) lsl 10 lor i) i !q
  done;
  for _ = 1 to 6_000 do
    let key, v = Iq.min_binding !q in
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace tbl (v * 31 land 1023) (Int.to_string !x, v);
    q := Iq.add (((key lsr 10) + 1 + (!x land 0xffff)) lsl 10 lor v) v (Iq.remove key !q)
  done;
  let i = ref 0 in
  for _ = 1 to 20_000 do
    i := Bigarray.Array1.unsafe_get chain !i
  done;
  ignore (Sys.opaque_identity (!q, tbl, !i));
  let t = cpu_s () -. t0 in
  (t, Gc.minor_words () -. w0)

(* [lap ()] is the CPU time since the previous lap. *)
let stopwatch () =
  let last = ref (cpu_s ()) in
  fun () ->
    let t = cpu_s () in
    let d = t -. !last in
    last := t;
    d

(* The workload's clients (directory j of a client on shard j mod M, so
   a client's two directories live on different groups), then the
   failover probe's client, whose one directory is on the crashed
   shard. [lap] is called after each step. *)
let setup ?(lap = ignore) r =
  if not (Cluster.await_serving ~timeout:30_000.0 r.cl ~count:(Cluster.total_servers r.cl)) then
    failwith "deployment never reached serving";
  lap ();
  let clients =
    Array.init r.w.clients (fun i ->
        let c = setup_client r i ~shards:(Array.init r.w.dirs_per_client (fun j -> j mod r.w.shards)) in
        lap ();
        c)
  in
  let probe = setup_client r r.w.clients ~shards:[| r.w.crashes.shard |] in
  lap ();
  (clients, probe)

let arrived r =
  r.outstanding <- r.outstanding + 1;
  if r.outstanding > r.max_outstanding then r.max_outstanding <- r.outstanding

let start_open r clients ~rate ~rng ~from ~until =
  let mean = 1000.0 /. rate in
  let n = Array.length clients in
  let third = (r.t_end -. r.t_start) /. 3.0 in
  let rec arrive due i =
    if due < until then
      Sim.Engine.schedule r.engine ~delay:(due -. now r) (fun () ->
          let op = draw_op r.w rng in
          let c = clients.(i mod n) in
          if in_window r due then begin
            let k = min 2 (int_of_float ((due -. r.t_start) /. third)) in
            r.backlog.(k) <- r.backlog.(k) +. float_of_int r.outstanding;
            r.backlog_n.(k) <- r.backlog_n.(k) + 1
          end;
          arrived r;
          Sim.Proc.boot r.engine c.node (fun () ->
              run_op r c ~t0:due op;
              r.outstanding <- r.outstanding - 1);
          arrive (due +. Sim.Rng.exponential rng ~mean) (i + 1))
  in
  arrive (from +. Sim.Rng.exponential rng ~mean) 0

let start_closed r clients ~backoff_ms ~rng ~until =
  Array.iter
    (fun c ->
      arrived r;
      let ops = Sim.Rng.split rng in
      Sim.Proc.boot r.engine c.node (fun () ->
          while now r < until do
            let failures = r.failures in
            run_op r c ~t0:(now r) (draw_op r.w ops);
            if r.failures > failures then Sim.Proc.sleep backoff_ms
          done;
          r.outstanding <- r.outstanding - 1))
    clients

(* Each crash starts a probe on the crashed shard that appends fresh rows
   back to back (5 ms back-off after a failure) until one succeeds; the
   outage is crash -> that first success. Probe calls are never
   measured as load. *)
let schedule_crashes r probe ~from =
  let c = r.w.crashes in
  for k = 0 to c.count - 1 do
    let at = from +. c.first_ms +. (float_of_int k *. c.period_ms) in
    Sim.Engine.schedule r.engine ~delay:(at -. now r) (fun () ->
        Cluster.crash_server_in r.cl ~shard:c.shard c.server;
        arrived r;
        Sim.Proc.boot r.engine probe.node (fun () ->
            while not (do_pair r probe ~counted:false ~t0:(now r) probe.dirs.(0)) do
              Sim.Proc.sleep 5.0
            done;
            r.outages <- (now r -. at) :: r.outages;
            r.outstanding <- r.outstanding - 1));
    Sim.Engine.schedule r.engine ~delay:(at +. c.down_ms -. now r) (fun () ->
        Cluster.restart_server_in r.cl ~shard:c.shard c.server;
        r.restarts <- (c.server, now r) :: r.restarts)
  done

(* When the load has stopped: let stragglers finish, bring every server
   back, wait for all shards to serve, then check the outputs. *)
let quiesce_and_check r =
  let deadline = now r +. 600_000.0 in
  while r.outstanding > 0 && now r < deadline do
    advance r (now r +. 1_000.0)
  done;
  if r.outstanding > 0 then violation r "%d ops never returned" r.outstanding;
  let shards = Cluster.shards r.cl in
  for k = 0 to shards - 1 do
    for s = 1 to Cluster.n_servers r.cl do
      Cluster.restart_server_in r.cl ~shard:k s
    done
  done;
  if not (Cluster.await_serving ~timeout:120_000.0 r.cl ~count:(Cluster.total_servers r.cl)) then
    violation r "deployment did not return to serving";
  advance r (now r +. 120_000.0);
  let stores =
    Array.init shards (fun k ->
        let serving = Cluster.serving_servers_in r.cl ~shard:k in
        let snaps =
          List.filter
            (fun (id, _) -> List.mem id serving)
            (Cluster.store_snapshots_in r.cl ~shard:k)
        in
        (match Dirsvc.Consistency.check_convergence snaps with
        | Ok () -> ()
        | Error d -> violation r "shard %d: %s" k (Dirsvc.Consistency.divergence_to_string d));
        match snaps with
        | (_, s) :: _ -> s
        | [] ->
            violation r "shard %d has no serving replica" k;
            Dirsvc.Directory.empty)
  in
  let present port obj name =
    let shard =
      List.find (fun k -> Cluster.shard_port r.cl k = port) (List.init shards Fun.id)
    in
    match Dirsvc.Directory.Store.find_opt obj stores.(shard) with
    | Some dir -> List.exists (fun (row : Dirsvc.Directory.row) -> row.name = name) dir.rows
    | None -> false
  in
  Hashtbl.iter
    (fun (port, obj, name) e ->
      match (e, present port obj name) with
      | Present, false -> violation r "acknowledged row %s/%d/%s is missing" port obj name
      | Absent, true -> violation r "deleted row %s/%d/%s is still present" port obj name
      | _ -> ())
    r.model;
  List.iter
    (fun ((src : Capability.t), (dst : Capability.t), name) ->
      if present src.port src.obj name && present dst.port dst.obj name then
        violation r "moved row %s is in both directories" name)
    r.moved

(* ---- measured quantities ---------------------------------------------- *)

type result = {
  sim : (string * float) list;  (** exact per seed *)
  setup_steps : float array;  (** CPU s per set-up step (first cell) *)
  host_slices : float array;  (** CPU s per window slice, all cells *)
  calibration : float list;  (** CPU s of each calibration pass *)
  alloc_words : float;
  live_heap_words : float;
  attempted : int;
  failed : int;
  violations : string list;
  report : string list;
  per_layer : (string * float) list;  (** traced scenarios only *)
}

(* Set-up with the CPU time of each step. Each timed stretch starts
   after a full major collection, so the garbage of what ran before it
   in the process is not collected on its time. *)
let timed_setup w ~seed ~st =
  Gc.compact ();
  let lap = stopwatch () in
  let steps = ref [] in
  let r = create_run w ~seed ~st in
  let clients, probe = setup r ~lap:(fun () -> steps := lap () :: !steps) in
  (r, clients, probe, Array.of_list (List.rev !steps))

(* Slices the window is timed in, and how many slices apart the
   calibration pass runs. *)
let window_slices = 200
let calibrate_every = 4

(* One cell of a scenario: a fresh deployment under the workload's load
   and crashes, measured into the shared [st] (and [layers]). *)
type cell = {
  setup_steps : float array;
  host_slices : float array;
  calibration : float list;
  alloc_words : float;
  events : int;
  live_words : int;  (** live heap after a full major GC at the window's end *)
  counts : (string * int) list;  (** window counter deltas *)
  outages : float list;
  max_outstanding : int;
  backlog_growth : float;
  violations : string list;
}

let run_cell ~layers w ~seed ~st =
  let r, clients, probe, setup_steps = timed_setup w ~seed ~st in
  let rng = Sim.Rng.create (Int64.of_int (seed lxor 0x5bd1e995)) in
  let from = now r in
  let c = w.crashes in
  r.t_start <- from +. w.warmup_ms;
  r.t_end <- r.t_start +. w.window_ms;
  let crash_from = if c.in_window then r.t_start else r.t_end in
  r.crash_from <- crash_from;
  let crashes_end = crash_from +. c.first_ms +. (float_of_int c.count *. c.period_ms) in
  (match w.load with
  | Open { rate } -> start_open r clients ~rate ~rng ~from ~until:r.t_end
  | Closed { backoff_ms } -> start_closed r clients ~backoff_ms ~rng ~until:r.t_end);
  schedule_crashes r probe ~from:crash_from;
  advance r r.t_start;
  Gc.compact ();
  Option.iter (fun l -> Layers.attach l r.engine ~from:r.t_start ~until:r.t_end) layers;
  let metrics = Cluster.metrics r.cl in
  let c0 = Sim.Metrics.counters metrics in
  let e0 = Sim.Engine.events_executed r.engine in
  let w0 = Gc.minor_words () in
  let slice_ms = w.window_ms /. float_of_int window_slices in
  let calibration = ref [] and calibration_words = ref 0.0 in
  let host_slices =
    Array.init window_slices (fun k ->
        let t0 = cpu_s () in
        advance r
          (if k = window_slices - 1 then r.t_end
           else r.t_start +. (float_of_int (k + 1) *. slice_ms));
        let t = cpu_s () -. t0 in
        if k mod calibrate_every = 0 then begin
          let ct, cw = calibrate () in
          calibration := ct :: !calibration;
          calibration_words := !calibration_words +. cw
        end;
        t)
  in
  let alloc_words = Gc.minor_words () -. w0 -. !calibration_words in
  let events = Sim.Engine.events_executed r.engine - e0 in
  let counts = Sim.Metrics.delta ~before:c0 ~after:(Sim.Metrics.counters metrics) in
  Gc.full_major ();
  let live_words = (Gc.quick_stat ()).live_words in
  Option.iter
    (fun l -> Layers.detach l ~restarts:(List.filter (fun (_, t) -> in_window r t) r.restarts))
    layers;
  advance r crashes_end;
  quiesce_and_check r;
  let third k = r.backlog.(k) /. float_of_int (max 1 r.backlog_n.(k)) in
  {
    setup_steps;
    host_slices;
    calibration = !calibration;
    alloc_words;
    events;
    live_words;
    counts;
    outages = r.outages;
    max_outstanding = r.max_outstanding;
    backlog_growth = third 2 -. third 0;
    violations = List.rev r.violations;
  }

(* The main scenario: [w.cells] cells (seeds derived from [seed] when
   more than one), samples pooled, counts and host figures summed. *)
let scenario ~traced w ~seed =
  let st = new_stats () in
  let layers = if traced then Some (Layers.create ~members:w.servers) else None in
  let seeds =
    if w.cells = 1 then [ seed ]
    else List.map (fun s -> Int64.to_int s land 0x3fffffff) (Sim.Rng.derive ~base:(Int64.of_int seed) w.cells)
  in
  let cells = List.map (fun seed -> run_cell ~layers w ~seed ~st) seeds in
  let live_heap_words = float_of_int (List.fold_left (fun m c -> max m c.live_words) 0 cells) in
  let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells in
  let host_slices = Array.concat (List.map (fun c -> c.host_slices) cells) in
  let calibration = List.concat_map (fun c -> c.calibration) cells in
  let alloc_words = sum (fun c -> c.alloc_words) in
  let events = List.fold_left (fun acc c -> acc + c.events) 0 cells in
  let counts = List.concat_map (fun c -> c.counts) cells in
  let outages = List.concat_map (fun c -> c.outages) cells in
  let reads = Samples.sorted st.reads and updates = Samples.sorted st.updates in
  let ops = Array.append reads updates in
  Array.sort Float.compare ops;
  let completed = st.attempted - st.failed in
  let fi = float_of_int in
  let per_op v = fi v /. fi (max 1 completed) in
  let window_s = fi w.cells *. w.window_ms /. 1000.0 in
  let q = Samples.quantile in
  let sim =
    [
      ("op_p50_ms", q ops 0.5);
      ("op_p99_ms", q ops 0.99);
      ("update_p50_ms", q updates 0.5);
      ("update_p99_ms", q updates 0.99);
      ("throughput_ops_s", fi completed /. window_s);
      ("ok_frac", fi completed /. fi (max 1 st.attempted));
      ("outage_ms", Samples.interquartile_mean outages);
      ("packets_per_op", per_op (Layers.count counts "net.pkt"));
      ("disk_writes_per_op", per_op (Layers.count counts "disk.write"));
      ("events", fi events);
    ]
  in
  let report =
    [
      Printf.sprintf "calls   n=%d beyond_p99=%d" (Array.length ops)
        (Samples.beyond ops (q ops 0.99));
      Printf.sprintf "reads   n=%d p50=%.2fms p99=%.2fms beyond_p99=%d failed=%d"
        (Array.length reads) (q reads 0.5) (q reads 0.99)
        (Samples.beyond reads (q reads 0.99))
        st.read_failed;
      Printf.sprintf "updates n=%d beyond_p99=%d failed=%d" (Array.length updates)
        (Samples.beyond updates (q updates 0.99))
        (st.failed - st.read_failed);
      Printf.sprintf "attempted=%d failed=%d (not_located=%d no_reply=%d unavailable=%d)"
        st.attempted st.failed st.not_located st.no_reply st.unavailable;
      Printf.sprintf "outages_ms=[%s]"
        (String.concat "," (List.map (Printf.sprintf "%.1f") (List.rev outages)));
    ]
  in
  let per_layer =
    match layers with
    | None -> []
    | Some l ->
        Layers.metrics l ~completed ~updates:(Array.length updates)
          ~client_read_mean_ms:(Samples.mean st.reads) ~counts ~window_s
          ~servers:(w.shards * w.servers) ~events
        @ [
            ("rpc.fail_not_located", fi st.not_located);
            ("rpc.fail_no_reply", fi st.no_reply);
            ("dirsvc.fail_unavailable", fi st.unavailable);
            ("gen.read_p50_ms", if reads = [||] then 0.0 else q reads 0.5);
            ("gen.read_p99_ms", if reads = [||] then 0.0 else q reads 0.99);
            ("gen.max_outstanding", fi (List.fold_left (fun m c -> max m c.max_outstanding) 0 cells));
            ("gen.backlog_growth", sum (fun c -> c.backlog_growth) /. fi w.cells);
          ]
  in
  {
    sim;
    setup_steps = (List.hd cells).setup_steps;
    host_slices;
    calibration;
    alloc_words;
    live_heap_words;
    attempted = st.attempted;
    failed = st.failed;
    violations = List.concat_map (fun c -> c.violations) cells;
    report;
    per_layer;
  }

(* One rung of the capacity ladder: a fresh deployment, the workload's
   mix open loop at [rate], [arrivals] of them measured after a 5 s
   warm-up, no crashes. *)
let rung w ~seed ~rate =
  let l = w.ladder in
  let r = create_run w ~seed ~st:(new_stats ()) in
  let clients, _probe = setup r in
  let rng = Sim.Rng.create (Int64.of_int (seed lxor 0x2545f491)) in
  let from = now r in
  r.t_start <- from +. 5_000.0;
  r.t_end <- r.t_start +. (float_of_int l.arrivals *. 1000.0 /. rate);
  start_open r clients ~rate ~rng ~from ~until:r.t_end;
  (* A rung is abandoned as soon as it cannot pass any more: an arrival
     makes at most one lookup and at most three updates. *)
  let max_slo_calls = float_of_int (if w.mix.lookup_pct > 0 then l.arrivals else 3 * l.arrivals) in
  let hopeless () =
    float_of_int r.slo_missed > 0.01 *. max_slo_calls
    || float_of_int r.st.failed > 0.01 *. float_of_int (3 * l.arrivals)
  in
  let deadline = r.t_end +. 120_000.0 in
  while (now r < r.t_end || r.outstanding > 0) && now r < deadline && not (hopeless ()) do
    advance r (now r +. 1_000.0)
  done;
  let st = r.st in
  let slo_attempted = if w.mix.lookup_pct > 0 then st.read_attempted else st.attempted - st.read_attempted in
  let third k = r.backlog.(k) /. float_of_int (max 1 r.backlog_n.(k)) in
  let ok =
    r.outstanding = 0
    && float_of_int r.slo_missed <= 0.01 *. float_of_int slo_attempted
    && float_of_int st.failed <= 0.01 *. float_of_int st.attempted
    && third 2 <= (1.5 *. third 0) +. 2.0
  in
  (ok, List.rev r.violations)

(* Binary search for the highest rung meeting the SLO, over rungs
   0..[rungs] (rung 0 is reported when nothing higher passes). Which
   server each client's port cache settles on is fixed by the seed and
   moves read_mostly's knee by ~15%, so the ladder is climbed on several
   deployments with seeds derived from [seed] and the mean reported. *)
let max_rate w ~seed =
  let l = w.ladder in
  let rate k = l.base_rate *. (l.step ** float_of_int k) in
  let violations = ref [] in
  let climb seed =
    let rec search lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        let ok, v = rung w ~seed ~rate:(rate mid) in
        violations := v @ !violations;
        if ok then search mid hi else search lo mid
    in
    let top = rate (search 0 (l.rungs + 1)) in
    Printf.printf "ladder  seed %d: %.2f ops/s\n%!" seed top;
    top
  in
  let seeds = Sim.Rng.derive ~base:(Int64.of_int seed) l.deployments in
  let tops = List.map (fun s -> climb (Int64.to_int s land 0x3fffffff)) seeds in
  (List.fold_left ( +. ) 0.0 tops /. float_of_int l.deployments, !violations)

(* ---- the command -------------------------------------------------------- *)

let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, " how long to measure (s)");
      ("--trace", Arg.Set_int trace, " 1 = traced per-layer run");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %s\n%s" a usage) usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        die "unknown workload %S (expected one of: %s)" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads))
  in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then die "%s" usage;
  (w, !seed, !seconds, !trace = 1)

let unit_of name =
  match name with
  | "throughput_ops_s" | "max_rate_ops_s" -> "1/s"
  | "setup_s" | "host_s" | "trace.overhead_s" -> "s"
  | "alloc_words" | "live_heap_words" | "sim.alloc_words_per_op" -> "words"
  | "sim.ns_per_event" -> "ns"
  | "rpc.locate_ms_per_op" -> "ms"
  | _ ->
      if Filename.check_suffix name "_ms" then "ms"
      else if Filename.check_suffix name "_per_s" then "1/s"
      else if Filename.check_suffix name "_frac" || Filename.check_suffix name "_share" then
        "fraction"
      else "count"

let () =
  let w, seed, seconds, traced = parse_args () in
  let started = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. started in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" w.name seed seconds
    (Bool.to_int traced);
  (* The first scenario is untraced; its simulated metrics are the
     reference every later repetition must reproduce exactly. *)
  let first = scenario ~traced:false w ~seed in
  List.iter print_endline first.report;
  let problems = ref first.violations in
  let max_rate =
    if traced then None
    else begin
      let rate, v = max_rate w ~seed in
      problems := !problems @ v;
      Some rate
    end
  in
  let plain = ref [ first ] and with_trace = ref [] in
  (* The number of repetitions depends on [--seconds] only, never on how
     fast this run goes: the fastest of more repetitions reads lower. A
     traced run alternates untraced and traced repetitions. *)
  let repetitions = max 2 (int_of_float (seconds /. w.rep_s)) in
  let want_traced () = traced && List.length !with_trace < List.length !plain in
  while List.length !plain + List.length !with_trace < repetitions do
    let tr = want_traced () in
    let res = scenario ~traced:tr w ~seed in
    if compare res.sim first.sim <> 0 then
      problems :=
        (if tr then "tracing moved a simulated metric"
         else "a repeated scenario did not reproduce the simulated metrics")
        :: !problems;
    problems := !problems @ res.violations;
    if tr then with_trace := res :: !with_trace else plain := res :: !plain
  done;
  (* Set-up is short: take more samples of it alone. *)
  let setups = ref (List.map (fun (r : result) -> r.setup_steps) (!plain @ !with_trace)) in
  while List.length !setups < 25 do
    let _, _, _, steps = timed_setup w ~seed ~st:(new_stats ()) in
    setups := steps :: !setups
  done;
  let median l = Samples.quantile (Array.of_list (List.sort Float.compare l)) 0.5 in
  (* Sum over steps of each step's fastest repetition. *)
  let fastest_sum = function
    | [] -> nan
    | first :: _ as l ->
        let best = Array.copy first in
        List.iter (Array.iteri (fun i t -> best.(i) <- min best.(i) t)) l;
        Array.fold_left ( +. ) 0.0 best
  in
  let host_cpu l = fastest_sum (List.map (fun (r : result) -> r.host_slices) l) in
  (* In reference seconds (see [calibrate]). *)
  let host l =
    fastest_sum
      (List.map
         (fun (r : result) ->
           let k = calibration_ref_s /. median r.calibration in
           Array.map (fun t -> t *. k) r.host_slices)
         l)
  in
  let metrics =
    if not traced then
      first.sim
      @ (match max_rate with Some r -> [ ("max_rate_ops_s", r) ] | None -> [])
      @ [
          ("setup_s", fastest_sum !setups);
          ("host_s", host !plain);
          ("alloc_words", first.alloc_words);
          ("live_heap_words", first.live_heap_words);
        ]
    else
      (List.hd !with_trace).per_layer
      @ [
          (* host figures of the untraced runs, not the traced one *)
          ("sim.ns_per_event", host !plain *. 1e9 /. List.assoc "events" first.sim);
          ( "sim.alloc_words_per_op",
            first.alloc_words /. float_of_int (max 1 (first.attempted - first.failed)) );
          ("trace.overhead_s", host !with_trace -. host !plain);
        ]
  in
  List.iter
    (fun (k, v) ->
      if not (Float.is_finite v) then problems := Printf.sprintf "%s is not a number" k :: !problems)
    metrics;
  let hosts l =
    String.concat " "
      (List.rev_map
         (fun (r : result) -> Printf.sprintf "%.3f" (Array.fold_left ( +. ) 0.0 r.host_slices))
         l)
  in
  Printf.printf "scenarios: %.1f s; whole-window host CPU s untraced [%s] traced [%s]\n"
    (elapsed ()) (hosts !plain) (hosts !with_trace);
  let calibration = List.concat_map (fun (r : result) -> r.calibration) !plain in
  Printf.printf "calibration: median %.3f ms over %d passes; unscaled host_s %.4f\n"
    (median calibration *. 1000.0) (List.length calibration) (host_cpu !plain);
  List.iter (fun (k, v) -> Printf.printf "%-30s %18.4f %s\n" k v (unit_of k)) metrics;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.sort_uniq compare !problems);
  let number v =
    if not (Float.is_finite v) then "0"
    else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!problems = []) first.attempted first.failed
    (String.concat ", "
       (List.map
          (fun (k, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k (number v) (unit_of k))
          metrics));
  if !problems <> [] then exit 1
