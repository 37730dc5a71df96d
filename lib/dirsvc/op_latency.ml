type t = {
  engine : Sim.Engine.t;
  node : int;
  metrics : Sim.Metrics.t option;
  labels : (string * string) list;
  server : Sim.Trace.attr;
  hists : (string, Sim.Metrics.Histogram.t) Hashtbl.t;
}

let create engine ~node ?metrics ~labels ~server () =
  { engine; node; metrics; labels; server; hists = Hashtbl.create 8 }

(* The labelled key ["dirsvc.op_ms{op=...,...}"] is built once per op
   name, at first use, not per request. *)
let histogram t m ~op =
  match Hashtbl.find_opt t.hists op with
  | Some h -> h
  | None ->
      let h =
        Sim.Metrics.histogram_handle m "dirsvc.op_ms"
          ~labels:(("op", op) :: t.labels)
      in
      Hashtbl.add t.hists op h;
      h

let time t ~op f =
  let started = Sim.Engine.now t.engine in
  let reply = f () in
  let elapsed = Sim.Engine.now t.engine -. started in
  (match t.metrics with
  | Some m -> Sim.Metrics.Histogram.observe (histogram t m ~op) elapsed
  | None -> ());
  if Sim.Engine.tracing t.engine then
    Sim.Engine.emit t.engine ~subsystem:"dirsvc" ~node:t.node ~name:"op"
      [
        ("op", Sim.Trace.Str op);
        ("server", t.server);
        ("latency_ms", Sim.Trace.Float elapsed);
        ( "status",
          Sim.Trace.Str
            (match reply with Wire.Err_rep _ -> "err" | _ -> "ok") );
      ];
  reply
