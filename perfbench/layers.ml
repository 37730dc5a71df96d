(* Per-layer attribution from outside the program: a Sim.Trace sink that
   sees every event the library already emits, pairs the start/end
   events of each layer boundary, and aggregates in memory. Nothing is
   retained per event beyond open pairs and exact duration samples. *)

type t = {
  mutable engine : Sim.Engine.t option;
  mutable from : float;
  mutable until : float;
  members : int;  (** a full group's size *)
  (* rpc: locate/locate.done and trans/trans.* paired by (node, xid) *)
  locate_open : (int * int, float) Hashtbl.t;
  mutable locates : int;
  locate_ms : Samples.t;
  trans_open : (int * int, float) Hashtbl.t;
  mutable trans : int;
  trans_ms : Samples.t;
  mutable bounces : int;
  mutable timeouts : int;
  (* group: send/send.done paired by (node, uid) *)
  send_open : (int * int, float) Hashtbl.t;
  send_ms : Samples.t;
  mutable assigned : int;  (** entries ordered by the sequencer *)
  mutable assigns : int;  (** assign / assign.batch events *)
  mutable retrans : int;
  views : (string * int * int, unit) Hashtbl.t;
  group_size : (string, int) Hashtbl.t;  (** members in each group's last view *)
  mutable resets : int;  (** new views with fewer members than the last *)
  mutable view_changes : int;
  (* storage *)
  disk_queue_ms : Samples.t;
  mutable disk_busy_ms : float;
  mutable commit_writes : int;
  (* dirsvc *)
  lookup_server_ms : Samples.t;
  update_server_ms : Samples.t;
  lookups_by_node : (int, int) Hashtbl.t;
  mutable recovered : (int * float) list;  (** (server, time), newest first *)
  recovery_ms : Samples.t;
}

let attr ev k = List.assoc_opt k ev.Sim.Trace.attrs

let int_attr ev k = match attr ev k with Some (Sim.Trace.Int i) -> i | _ -> -1

let float_attr ev k = match attr ev k with Some (Sim.Trace.Float f) -> f | _ -> 0.0

let str_attr ev k = match attr ev k with Some (Sim.Trace.Str s) -> s | _ -> ""

let close tbl k ~now samples =
  match Hashtbl.find_opt tbl k with
  | Some t0 ->
      Hashtbl.remove tbl k;
      Samples.add samples (now -. t0)
  | None -> ()

let in_window t time = time >= t.from && time < t.until

let observe t (ev : Sim.Trace.event) =
  let now = ev.time in
  let win = in_window t now in
  match (ev.subsystem, ev.name) with
  | "rpc", "locate" when win ->
      t.locates <- t.locates + 1;
      Hashtbl.replace t.locate_open (ev.node, int_attr ev "xid") now
  | "rpc", "locate.done" -> close t.locate_open (ev.node, int_attr ev "xid") ~now t.locate_ms
  | "rpc", "trans" when win ->
      t.trans <- t.trans + 1;
      Hashtbl.replace t.trans_open (ev.node, int_attr ev "xid") now
  | "rpc", "trans.done" -> close t.trans_open (ev.node, int_attr ev "xid") ~now t.trans_ms
  | "rpc", ("trans.bounce" | "trans.timeout") ->
      let k = (ev.node, int_attr ev "xid") in
      if Hashtbl.mem t.trans_open k then begin
        Hashtbl.remove t.trans_open k;
        if ev.name = "trans.bounce" then t.bounces <- t.bounces + 1
        else t.timeouts <- t.timeouts + 1
      end
  | "grp", "send" when win -> Hashtbl.replace t.send_open (ev.node, int_attr ev "uid") now
  | "grp", "send.done" -> close t.send_open (ev.node, int_attr ev "uid") ~now t.send_ms
  | "grp", "assign" when win ->
      t.assigns <- t.assigns + 1;
      t.assigned <- t.assigned + 1
  | "grp", "assign.batch" when win ->
      t.assigns <- t.assigns + 1;
      t.assigned <- t.assigned + int_attr ev "count"
  | "grp", "retrans" when win -> t.retrans <- t.retrans + 1
  | "grp", "view" ->
      (* every member reports each view; count it once *)
      let g = str_attr ev "gname" in
      let k = (g, int_attr ev "instance", int_attr ev "view") in
      if not (Hashtbl.mem t.views k) then begin
        Hashtbl.replace t.views k ();
        let size = List.length (String.split_on_char ',' (str_attr ev "members")) in
        let last = Option.value ~default:t.members (Hashtbl.find_opt t.group_size g) in
        if win && size < last then t.resets <- t.resets + 1;
        Hashtbl.replace t.group_size g size;
        if win then t.view_changes <- t.view_changes + 1
      end
  | "storage", "disk.write" when win ->
      Samples.add t.disk_queue_ms (float_attr ev "queue_ms");
      t.disk_busy_ms <- t.disk_busy_ms +. float_attr ev "latency_ms";
      if int_attr ev "block" = 0 then t.commit_writes <- t.commit_writes + 1
  | "storage", "disk.read" when win ->
      t.disk_busy_ms <- t.disk_busy_ms +. float_attr ev "latency_ms"
  | "dirsvc", "op" when win -> (
      match str_attr ev "op" with
      | "lookup" ->
          Samples.add t.lookup_server_ms (float_attr ev "latency_ms");
          Hashtbl.replace t.lookups_by_node ev.node
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.lookups_by_node ev.node))
      | "list" | "xshard" -> ()
      | _ -> Samples.add t.update_server_ms (float_attr ev "latency_ms"))
  | "dirsvc", "recovered" when win -> t.recovered <- (int_attr ev "server", now) :: t.recovered
  | _ -> ()

(* Aggregates for deployments whose groups have [members] servers; the
   sink is attached to one deployment at a time. *)
let create ~members =
  {
    engine = None;
    from = 0.0;
    until = 0.0;
    members;
    locate_open = Hashtbl.create 64;
    locates = 0;
    locate_ms = Samples.create ();
    trans_open = Hashtbl.create 64;
    trans = 0;
    trans_ms = Samples.create ();
    bounces = 0;
    timeouts = 0;
    send_open = Hashtbl.create 64;
    send_ms = Samples.create ();
    assigned = 0;
    assigns = 0;
    retrans = 0;
    views = Hashtbl.create 64;
    group_size = Hashtbl.create 4;
    resets = 0;
    view_changes = 0;
    disk_queue_ms = Samples.create ();
    disk_busy_ms = 0.0;
    commit_writes = 0;
    lookup_server_ms = Samples.create ();
    update_server_ms = Samples.create ();
    lookups_by_node = Hashtbl.create 16;
    recovered = [];
    recovery_ms = Samples.create ();
  }

(* Install the sink on [engine] for events stamped in [from, until). The
   ring stays tiny: the sink sees every event synchronously. *)
let attach t engine ~from ~until =
  t.engine <- Some engine;
  t.from <- from;
  t.until <- until;
  let ring = Sim.Trace.create ~capacity:16 () in
  Sim.Trace.set_sink ring (Some (observe t));
  Sim.Engine.set_trace engine (Some ring)

(* Detach, pairing each of the deployment's [restarts] (server, time)
   with that server's next "recovered" event; open pairs are dropped. *)
let detach t ~restarts =
  Option.iter (fun e -> Sim.Engine.set_trace e None) t.engine;
  t.engine <- None;
  List.iter
    (fun (server, at) ->
      let d =
        List.fold_left
          (fun acc (s, time) -> if s = server && time >= at then min acc (time -. at) else acc)
          infinity t.recovered
      in
      if d < infinity then Samples.add t.recovery_ms d)
    restarts;
  t.recovered <- [];
  List.iter Hashtbl.reset [ t.locate_open; t.trans_open; t.send_open ];
  Hashtbl.reset t.views;
  Hashtbl.reset t.group_size

(* Per-layer metrics, given the run's outside view: completed calls and
   updates, client read latencies, window counters and host figures. *)
(* Sums over window counter deltas (one list entry per cell and key):
   of one key, and of every key that starts with [prefix]. *)
let count counts key = List.fold_left (fun acc (k, v) -> if k = key then acc + v else acc) 0 counts

let count_prefix counts prefix =
  List.fold_left
    (fun acc (k, v) -> if String.starts_with ~prefix k then acc + v else acc)
    0 counts

let metrics t ~completed ~updates ~client_read_mean_ms ~counts ~window_s ~servers
    ~events =
  let count = count counts and count_prefix = count_prefix counts in
  let fi = float_of_int in
  let per_op v = fi v /. fi (max 1 completed) in
  let per_update v = fi v /. fi (max 1 updates) in
  let q s p = Samples.quantile (Samples.sorted s) p in
  let zero_nan v = if Float.is_nan v then 0.0 else v in
  let lookups = Hashtbl.fold (fun _ n acc -> acc + n) t.lookups_by_node 0 in
  let max_lookups = Hashtbl.fold (fun _ n acc -> max n acc) t.lookups_by_node 0 in
  [
    ("sim.events_per_op", per_op events);
    ("simnet.rpc_packets_per_op", per_op (count "net.pkt.rpc"));
    ("simnet.grp_packets_per_op", per_op (count_prefix "net.pkt.grp"));
    ("simnet.mcasts_per_op", per_op (count "net.mcast"));
    ("rpc.locates_per_op", per_op t.locates);
    ("rpc.locate_ms_per_op", Samples.sum t.locate_ms /. fi (max 1 completed));
    ("rpc.trans_p50_ms", zero_nan (q t.trans_ms 0.5));
    ("rpc.trans_p99_ms", zero_nan (q t.trans_ms 0.99));
    ("rpc.bounces_per_op", per_op t.bounces);
    ("rpc.timeouts_per_op", per_op t.timeouts);
    ("rpc.useful_frac", fi t.trans_ms.n /. fi (max 1 (t.trans + t.locates)));
    ("group.send_p50_ms", zero_nan (q t.send_ms 0.5));
    ("group.send_p99_ms", zero_nan (q t.send_ms 0.99));
    ("group.msgs_per_update", per_update (count_prefix "net.pkt.grp"));
    ("group.batch_mean", if t.assigns = 0 then 0.0 else fi t.assigned /. fi t.assigns);
    ("group.retrans_per_update", per_update t.retrans);
    ("group.resets", fi t.resets);
    ("group.view_changes", fi t.view_changes);
    ("group.heartbeats_per_s", fi (count "grp.hb") /. window_s);
    ("storage.disk_writes_per_update", per_update (count "disk.write"));
    ("storage.commits_per_update", per_update t.commit_writes);
    ("storage.disk_busy_frac", t.disk_busy_ms /. (window_s *. 1000.0 *. fi servers));
    ("storage.disk_queue_p99_ms", zero_nan (q t.disk_queue_ms 0.99));
    ("dirsvc.lookup_server_p50_ms", zero_nan (q t.lookup_server_ms 0.5));
    ("dirsvc.lookup_server_p99_ms", zero_nan (q t.lookup_server_ms 0.99));
    ( "dirsvc.read_server_share",
      zero_nan (Samples.mean t.lookup_server_ms /. client_read_mean_ms) );
    ("dirsvc.update_server_p50_ms", zero_nan (q t.update_server_ms 0.5));
    ("dirsvc.update_server_p99_ms", zero_nan (q t.update_server_ms 0.99));
    ( "dirsvc.server_load_skew",
      if lookups = 0 then 0.0 else fi max_lookups /. (fi lookups /. fi servers) );
    ("dirsvc.cross_shard_per_s", fi (count "dirsvc.cross_shard") /. window_s);
    ("dirsvc.recovery_ms", zero_nan (q t.recovery_ms 0.5));
  ]
