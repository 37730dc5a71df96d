(* Tests for the Amoeba-style RPC layer: transactions, locate cache,
   NOTHERE bouncing, failover. *)

open Harness

type Simnet.Payload.t += Echo_req of string | Echo_rep of string | Work of float

let setup_world ?(seed = 2L) () = make_world ~seed ()

(* Build a node with an RPC transport attached. *)
let rpc_node w ~id =
  let n = node ~id in
  let nic = Simnet.Network.attach w.net n in
  let transport = Rpc.Transport.create w.net nic in
  (n, transport)

let echo_handler ~client:_ = function
  | Echo_req s -> Echo_rep ("echo:" ^ s)
  | _ -> Echo_rep "?"

(* Record the virtual send time of every Locate multicast. *)
let record_locates w =
  let sent = ref [] in
  Simnet.Network.set_fault_filter w.net
    (Some
       (fun packet ->
         (match packet.Simnet.Packet.payload with
         | Rpc.Wire.Locate _ -> sent := Sim.Engine.now w.engine :: !sent
         | _ -> ());
         Simnet.Network.Deliver));
  fun () -> List.rev !sent

(* A served port is located in one round, and a round that finds a
   server is not followed by a back-off pause: the reply arrives before
   the first pause would have ended. *)
let test_basic_trans () =
  let w = setup_world () in
  let _server, st = rpc_node w ~id:1 in
  let client, ct = rpc_node w ~id:2 in
  Rpc.Transport.serve st ~port:"echo" echo_handler;
  let locates = record_locates w in
  let reply, done_at =
    run_fiber w client (fun () ->
        let reply = Rpc.Transport.trans ct ~port:"echo" (Echo_req "hi") in
        (reply, Sim.Engine.now w.engine))
  in
  (match reply with
  | Echo_rep s -> Alcotest.(check string) "echoed" "echo:hi" s
  | _ -> Alcotest.fail "wrong reply payload");
  Alcotest.(check bool) "server cached" true
    (Rpc.Transport.cached_servers ct ~port:"echo" = [ 1 ]);
  let config = Rpc.Transport.default_config in
  Alcotest.(check (list (float 1e-9))) "one Locate at +0" [ 0.0 ] (locates ());
  Alcotest.(check bool) "no back-off sleep" true
    (done_at < config.locate_window +. config.locate_backoff)

let test_rpc_message_count () =
  let w = setup_world () in
  let _server, st = rpc_node w ~id:1 in
  let client, ct = rpc_node w ~id:2 in
  Rpc.Transport.serve st ~port:"echo" echo_handler;
  (* Warm the port cache so we count a bare transaction. *)
  let () =
    run_fiber w client (fun () ->
        ignore (Rpc.Transport.trans ct ~port:"echo" (Echo_req "warm")))
  in
  let before = Sim.Metrics.counters w.metrics in
  Sim.Proc.boot w.engine client (fun () ->
      ignore (Rpc.Transport.trans ct ~port:"echo" (Echo_req "counted")));
  Sim.Engine.run w.engine;
  let after = Sim.Metrics.counters w.metrics in
  let delta = Sim.Metrics.delta ~before ~after in
  (* The paper: an Amoeba RPC costs 3 messages (request, reply, ack). *)
  Alcotest.(check (option int)) "3 packets per RPC" (Some 3)
    (List.assoc_opt "net.pkt" delta)

let test_concurrent_clients () =
  let w = setup_world () in
  let _server, st = rpc_node w ~id:1 in
  Rpc.Transport.serve st ~port:"echo" ~threads:4 echo_handler;
  let finished = ref 0 in
  for i = 2 to 6 do
    let client, ct = rpc_node w ~id:i in
    Sim.Proc.boot w.engine client (fun () ->
        for j = 1 to 10 do
          match
            Rpc.Transport.trans ct ~port:"echo"
              (Echo_req (Printf.sprintf "%d.%d" i j))
          with
          | Echo_rep _ -> incr finished
          | _ -> ()
        done)
  done;
  Sim.Engine.run w.engine;
  Alcotest.(check int) "all transactions served" 50 !finished

(* A port nobody serves fails with "not located", and each empty locate
   round doubles the pause before the next: with the default 2 ms window
   and 5 ms base, rounds go out at +0, +7, +19 and +41 ms and the call
   gives up at +83 ms. *)
let test_no_server () =
  let w = setup_world () in
  let client, ct = rpc_node w ~id:2 in
  let locates = record_locates w in
  let failed_at =
    run_fiber w client (fun () ->
        match Rpc.Transport.trans ct ~port:"ghost" (Echo_req "x") with
        | _ -> Alcotest.fail "a port nobody serves replied"
        | exception Rpc.Transport.Rpc_failure msg ->
            Alcotest.(check string) "failure" "service ghost: not located" msg;
            Sim.Engine.now w.engine)
  in
  Alcotest.(check (list (float 1e-9))) "one Locate per round, sent at (ms)"
    [ 0.0; 7.0; 19.0; 41.0 ] (locates ());
  Alcotest.(check (float 1e-9)) "gives up at (ms)" 83.0 failed_at

let test_busy_server_bounces () =
  let w = setup_world () in
  let server, st = rpc_node w ~id:1 in
  let cpu = Sim.Resource.create ~capacity:1 () in
  (* One worker thread that takes a long time per request. *)
  Rpc.Transport.serve st ~port:"slow" ~threads:1 (fun ~client:_ -> function
    | Work d ->
        Sim.Resource.use cpu d;
        Echo_rep "done"
    | _ -> Echo_rep "?");
  ignore server;
  let client, ct = rpc_node w ~id:2 in
  let bounced = ref false in
  Simnet.Network.set_fault_filter w.net
    (Some
       (fun packet ->
         (match packet.Simnet.Packet.payload with
         | Rpc.Wire.Not_here _ -> bounced := true
         | _ -> ());
         Simnet.Network.Deliver));
  Sim.Proc.boot w.engine client (fun () ->
      (* First request occupies the single worker for 50ms. *)
      Sim.Proc.spawn (fun () ->
          ignore (Rpc.Transport.trans ct ~port:"slow" (Work 50.0)));
      Sim.Proc.sleep 10.0;
      (* Second request arrives while the worker is busy: NOTHERE. *)
      match Rpc.Transport.trans ct ~port:"slow" ~timeout:20.0 (Work 1.0) with
      | _ -> ()
      | exception Rpc.Transport.Rpc_failure _ -> ());
  Sim.Engine.run w.engine;
  Alcotest.(check bool) "NOTHERE was sent" true !bounced

let test_failover_to_second_server () =
  let w = setup_world () in
  let server1, st1 = rpc_node w ~id:1 in
  let _server2, st2 = rpc_node w ~id:2 in
  let serve_on st tag =
    Rpc.Transport.serve st ~port:"ha" (fun ~client:_ -> function
      | Echo_req s -> Echo_rep (tag ^ ":" ^ s)
      | _ -> Echo_rep "?")
  in
  serve_on st1 "s1";
  serve_on st2 "s2";
  let client, ct = rpc_node w ~id:3 in
  let replies = ref [] in
  Sim.Proc.boot w.engine client (fun () ->
      (match Rpc.Transport.trans ct ~port:"ha" (Echo_req "a") with
      | Echo_rep s -> replies := s :: !replies
      | _ -> ());
      (* Kill both, then restart only server 2's service: client should
         still complete after a relocate. *)
      Sim.Node.crash server1;
      Sim.Proc.sleep 5.0;
      match Rpc.Transport.trans ct ~port:"ha" ~timeout:30.0 (Echo_req "b") with
      | Echo_rep s -> replies := s :: !replies
      | _ -> ());
  Sim.Engine.run w.engine;
  match List.rev !replies with
  | [ first; second ] ->
      Alcotest.(check bool) "first answered" true
        (first = "s1:a" || first = "s2:a");
      Alcotest.(check string) "second served by survivor" "s2:b" second
  | other ->
      Alcotest.failf "expected two replies, got %d" (List.length other)

let test_stop_serving () =
  let w = setup_world () in
  let _server, st = rpc_node w ~id:1 in
  Rpc.Transport.serve st ~port:"echo" echo_handler;
  let client, ct = rpc_node w ~id:2 in
  let outcome =
    run_fiber w client (fun () ->
        let first =
          match Rpc.Transport.trans ct ~port:"echo" (Echo_req "x") with
          | Echo_rep _ -> "ok"
          | _ -> "?"
        in
        Rpc.Transport.stop_serving st ~port:"echo";
        let second =
          match Rpc.Transport.trans ct ~port:"echo" ~timeout:10.0 (Echo_req "y") with
          | _ -> "ok"
          | exception Rpc.Transport.Rpc_failure _ -> "failed"
        in
        (first, second))
  in
  Alcotest.(check (pair string string)) "served then refused" ("ok", "failed")
    outcome

let suite =
  let tc = Alcotest.test_case in
  [
    tc "basic transaction" `Quick test_basic_trans;
    tc "3 messages per rpc" `Quick test_rpc_message_count;
    tc "concurrent clients" `Quick test_concurrent_clients;
    tc "no server -> failure" `Quick test_no_server;
    tc "busy server bounces NOTHERE" `Quick test_busy_server_bounces;
    tc "failover to second server" `Quick test_failover_to_second_server;
    tc "stop serving" `Quick test_stop_serving;
  ]
