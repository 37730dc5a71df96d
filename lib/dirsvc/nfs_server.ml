type t = {
  params : Params.t;
  latency : Op_latency.t;
  node : Sim.Node.t;
  device : Storage.Block_device.t;
  port : string;
  cpu : Sim.Resource.t;
  mutable store : Directory.store;
  mutable useq : int;
  mutable next_secret : int;
}

let store_snapshot t = t.store

let fresh_secret t =
  t.next_secret <- t.next_secret + 1;
  Capability.mint_secret
    (Int64.of_int ((Sim.Node.id t.node * 999_979) + t.next_secret))

(* One synchronous metadata write per update — the UNIX directory
   update cost. Block index only spreads wear; contents are the encoded
   directory (truncated to a block: this comparator is never recovered
   from disk). *)
let disk_commit t dir_id =
  let data =
    match Directory.Store.find_opt dir_id t.store with
    | Some dir ->
        let encoded = Directory.encode_dir dir in
        let cap = Storage.Block_device.block_size t.device in
        if String.length encoded > cap then String.sub encoded 0 cap
        else encoded
    | None -> ""
  in
  let block = 1 + (dir_id mod (Storage.Block_device.blocks t.device - 1)) in
  Storage.Block_device.write t.device block (Bytes.of_string data)

let handle_write t op =
  Sim.Resource.use t.cpu t.params.Params.nfs_cpu_write_ms;
  let op =
    match op with
    | Directory.Create_dir { columns; hint; _ } ->
        Directory.Create_dir { columns; secret = fresh_secret t; hint }
    | other -> other
  in
  match Directory.dir_id_of_op t.store op with
  | None -> Wire.Err_rep (Wire.Op_error (Directory.Bad_request "bad op"))
  | Some dir_id -> (
      match Directory.apply t.store ~seqno:(t.useq + 1) op with
      | Ok (store', result) ->
          t.useq <- t.useq + 1;
          t.store <- store';
          disk_commit t dir_id;
          (match result with
          | Directory.Created id ->
              let secret =
                match op with
                | Directory.Create_dir { secret; _ } -> secret
                | _ -> assert false
              in
              Wire.Cap_rep (Capability.owner ~port:t.port ~obj:id secret)
          | Directory.Updated -> Wire.Ok_rep)
      | Error e -> Wire.Err_rep (Wire.Op_error e))

let handle_read t serve =
  Sim.Resource.use t.cpu t.params.Params.nfs_cpu_read_ms;
  serve t.store

let client_handler t ~client:_ body =
  match body with
  | Wire.Dir_request (Wire.Write_op op) ->
      Wire.Dir_reply
        (Op_latency.time t.latency ~op:(Directory.op_kind op) (fun () ->
             handle_write t op))
  | Wire.Dir_request (Wire.List_req { cap; column }) ->
      Wire.Dir_reply
        (Op_latency.time t.latency ~op:"list" (fun () ->
             handle_read t (fun store ->
                 match Directory.list_dir store ~cap ~column with
                 | Ok listing -> Wire.Listing_rep listing
                 | Error e -> Wire.Err_rep (Wire.Op_error e))))
  | Wire.Dir_request (Wire.Lookup_req { items; column }) ->
      Wire.Dir_reply
        (Op_latency.time t.latency ~op:"lookup" (fun () ->
             handle_read t (fun store ->
                 let resolve (cap, name) =
                   match Directory.lookup store ~cap ~name ~column with
                   | Ok (cap, mask) -> Some (cap, mask)
                   | Error _ -> None
                 in
                 Wire.Lookup_rep (List.map resolve items))))
  | _ -> Wire.Dir_reply (Wire.Err_rep (Wire.Unavailable "bad request"))

let start ~params ?metrics net ~node ~device ~port () =
  let nic = Simnet.Network.attach net node in
  let transport = Rpc.Transport.create net nic in
  let t =
    {
      params;
      latency =
        Op_latency.create (Simnet.Network.engine net) ~node:(Sim.Node.id node)
          ?metrics ~labels:[ ("server", "nfs") ] ~server:(Sim.Trace.Str "nfs")
          ();
      node;
      device;
      port;
      cpu = Sim.Resource.create ~capacity:1 ();
      store = Directory.empty;
      useq = 0;
      next_secret = 0;
    }
  in
  Rpc.Transport.serve transport ~port ~threads:params.Params.server_threads
    (client_handler t);
  t
