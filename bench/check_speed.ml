(* Regression gates, run from [dune build @speed-smoke] (and the
   parallel/shard smoke aliases). Every gate runs a seed-fixed scenario
   of spec.ml, so each gated number is exact for a given build; only the
   parallel gate measures wall clock. Five gates, in order:

   - events per packet and minor words per event on the speed
     experiment's --quick scenarios;
   - allocation and commits per op of the batched scaled run;
   - packets per op of the saturating locate-storm run;
   - shard scaling: four shards must at least double one group's ops;
   - parallel speedup of the figure grid (skipped below 4 cores).

   A failing gate prints FAIL, explains on stderr and exits 1. *)

let check ok why fmt =
  Printf.ksprintf
    (fun line ->
      Printf.printf "%s %s\n" line (if ok then "ok" else "FAIL");
      if not ok then begin
        prerr_string why;
        exit 1
      end)
    fmt

(* Engine events per wire packet is the cheapest proxy for "are we
   simulating work that never happens": delivery fan-out to NICs that
   discard the packet, timeout guards that fire dead, and polling
   drivers all inflate events without adding packets. The ceilings sit
   ~50% above the current values so routine drift passes but a
   regression that reintroduces a per-receiver or per-guard event class
   (historically a 3-14x jump on the scaled scenario) fails loudly. *)

(* Minor words per engine event, on the same runs (deployment
   construction included), is mostly the simulator's own per-event
   garbage: fiber suspend and resume, packet delivery, RNG draws, trace
   attributes. It is exact for a given build. The ceilings sit ~15%
   above the values measured once wakeups, packet moves and draws
   stopped allocating (38.5, 44.9, 68.5, 66.6); the build before
   measured 65.6, 83.1, 100.7 and 99.0 and fails every one, so a return
   of per-event closures, boxes or effect round trips fails. See
   DESIGN.md §8, "Allocation per event". *)

let events_gate () =
  List.iter2
    (fun (s : Spec.scenario) (ceiling, words_ceiling) ->
      let t = Spec.timed ~quick:true s in
      let events = Spec.events t.result
      and packets = Spec.count t.result "net.pkt" in
      let ratio = float_of_int events /. float_of_int packets in
      check (ratio <= ceiling)
        (Printf.sprintf
           "check_speed: events-per-packet ceiling exceeded in %s.\n\
            Something is scheduling engine events that do no useful work — \
            see DESIGN.md on timers and event-count engineering.\n"
           s.name)
        "%-20s %8d events %7d packets  %5.2f events/packet  (ceiling %4.1f)"
        s.name events packets ratio ceiling;
      let words = t.minor_words /. float_of_int events in
      check (words <= words_ceiling)
        (Printf.sprintf
           "check_speed: minor-words-per-event ceiling exceeded in %s.\n\
            The event path allocates again — see DESIGN.md §8, \
            \"Allocation per event\".\n"
           s.name)
        "%-20s %8.0f minor words  %5.1f words/event  (ceiling %4.0f)" s.name
        t.minor_words words words_ceiling)
    Spec.speed_scenarios
    [ (8.0, 44.0); (6.0, 52.0); (7.5, 79.0); (8.0, 77.0) ]

(* Group-commit gate: the full-size scaled update scenario with
   sequencer batching on (batch_max = 8) must allocate at most 234k
   minor words per completed op — 0.7x the unbatched run (batch = 1 of
   the speed experiment: 334,219 words/op), so a build whose batching
   stopped paying fails — and must average strictly under one durable
   commit per op (~0.46 today; 1.0 would mean group commit stopped
   grouping). The batched run measures ~66k words/op. *)

let alloc_ceiling = 234_000.0

let alloc_gate () =
  let t = Spec.timed ~quick:false (Spec.batched 8) in
  let ops = t.result.point.Workload.Throughput.total_ops in
  let mw_op = t.minor_words /. float_of_int ops in
  let commits = Spec.count t.result "dirsvc.commit" in
  let c_op = float_of_int commits /. float_of_int ops in
  check
    (mw_op <= alloc_ceiling && c_op < 1.0)
    (Printf.sprintf
       "check_speed: batched group commit is not paying for itself — either \
        the per-op allocation regressed past %.0f minor words or durable \
        commits are back to one per update.\n"
       alloc_ceiling)
    "alloc gate: batched scaled run  %d ops  %.0f minor words/op (ceiling \
     %.0f)  %.3f commits/op (ceiling < 1.0)"
    ops mw_op alloc_ceiling c_op

(* Locate-storm gate: 50 closed-loop append+delete callers on 5
   replicas keep every server thread busy, and a busy Amoeba server
   answers a Locate with silence. Clients that re-multicast on a fixed
   short period then spend nearly all packets on locates that find
   nobody. With the pause doubling per empty round this run measures
   ~272 packets per completed op; the fixed 5 ms pause measured ~453.
   The ceiling sits between the two. *)

let storm_ceiling = 360.0

let storm_gate () =
  let r = Spec.run ~quick:true Spec.storm in
  let ops = r.point.Workload.Throughput.total_ops in
  let per_op = float_of_int (Spec.count r "net.pkt") /. float_of_int ops in
  check (per_op <= storm_ceiling)
    (Printf.sprintf
       "check_speed: saturated callers sent %.1f packets per completed op \
        (ceiling %.0f).\n\
        Clients are polling busy servers with Locate multicasts again — \
        check the empty-round back-off in Rpc.Transport.ensure_located.\n"
       per_op storm_ceiling)
    "storm gate: 50 callers on 5 replicas  %d ops  %.1f packets/op (ceiling \
     %.0f)"
    ops per_op storm_ceiling

(* Shard-scaling gate: splitting the namespace over four sequencer
   groups must actually buy ordering parallelism — the shard workload on
   a 4-shard deployment (3 servers each) must complete at least 2x the
   client iterations of the single 12-server group in the same window. *)

let shard_gate () =
  let ops m =
    (Spec.run ~quick:true (Spec.shard_gate_point m)).point
      .Workload.Throughput.total_ops
  in
  let ops1 = ops 1 in
  let ops4 = ops 4 in
  let ratio = float_of_int ops4 /. float_of_int ops1 in
  check (ratio >= 2.0)
    (Printf.sprintf
       "check_speed: four shards delivered %.2fx the single-group update \
        throughput (must be >= 2x).\n\
        The partition is not spreading ordering load — check the shard \
        router's placement hashing and the per-shard sequencers.\n"
       ratio)
    "shard gate: shards=1 %d ops  shards=4 %d ops  speedup %.2fx  (floor \
     2.00x)"
    ops1 ops4 ratio

(* Parallel-sweep gate: the --quick figure grid, fanned over a
   [Sim.Pool], must actually go faster — jobs=4 wall clock at most 0.6x
   jobs=1. Catches a pool regression that serializes workers (a lock
   held across job execution, a coordinator that stops helping) which
   the determinism tests cannot see: output stays identical either way.
   Wall-clock speedup needs real cores, so the gate skips itself on
   machines with fewer than 4, printing why. *)

let parallel_gate () =
  let cores = Domain.recommended_domain_count () in
  if cores < 4 then
    Printf.printf
      "parallel gate: skipped (%d core(s) available, need >= 4 for a \
       meaningful speedup measurement)\n"
      cores
  else begin
    let time jobs = Spec.pool_wall ~jobs (Spec.grid_thunks ~quick:true) in
    let t1 = time 1 in
    let t4 = time 4 in
    let ratio = t4 /. t1 in
    check (ratio <= 0.6)
      (Printf.sprintf
         "check_speed: jobs=4 grid took %.2fx the jobs=1 wall clock (must be \
          <= 0.60x on %d cores).\n\
          The domain pool is not delivering parallelism — check for \
          serialization in Sim.Pool or shared mutable state.\n"
         ratio cores)
      "parallel gate: jobs=1 %.3f s  jobs=4 %.3f s  ratio %.2f  (ceiling 0.60)"
      t1 t4 ratio
  end

let () =
  events_gate ();
  alloc_gate ();
  storm_gate ();
  shard_gate ();
  parallel_gate ()
