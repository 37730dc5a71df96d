type 'a t = {
  engine : Sim.Engine.t option;
  capacity : int;
  size_of : 'a -> int;
  write_ms : float;
  mutable records : 'a list; (* newest first *)
  mutable used : int;
}

let create ?engine ~capacity ~size_of ~write_ms () =
  if capacity <= 0 then invalid_arg "Nvram.create: capacity must be positive";
  { engine; capacity; size_of; write_ms; records = []; used = 0 }

let used_bytes t = t.used

let length t = List.length t.records

let fill_ratio t = float_of_int t.used /. float_of_int t.capacity

let tracing t =
  match t.engine with Some engine -> Sim.Engine.tracing engine | None -> false

let emit t ~name attrs =
  match t.engine with
  | None -> ()
  | Some engine ->
      Sim.Engine.emit engine ~subsystem:"storage" ~node:(-1) ~name attrs

let append t r =
  let size = t.size_of r in
  if t.used + size > t.capacity then false
  else begin
    Sim.Proc.sleep t.write_ms;
    t.records <- r :: t.records;
    t.used <- t.used + size;
    if tracing t then
      emit t ~name:"nvram.append"
        [
          ("bytes", Sim.Trace.Int size);
          ("used", Sim.Trace.Int t.used);
          ("records", Sim.Trace.Int (List.length t.records));
        ];
    true
  end

(* Batched append: one NVRAM write latency covers the whole list. The
   board commits a contiguous region in a single DMA-like burst, which
   is what makes group commit pay — [n] records cost one [write_ms]
   instead of [n]. All-or-nothing on capacity. *)
let append_all t rs =
  match rs with
  | [] -> true
  | rs ->
      let size = List.fold_left (fun acc r -> acc + t.size_of r) 0 rs in
      if t.used + size > t.capacity then false
      else begin
        Sim.Proc.sleep t.write_ms;
        List.iter (fun r -> t.records <- r :: t.records) rs;
        t.used <- t.used + size;
        if tracing t then
          emit t ~name:"nvram.append"
            [
              ("bytes", Sim.Trace.Int size);
              ("used", Sim.Trace.Int t.used);
              ("records", Sim.Trace.Int (List.length t.records));
            ];
        true
      end

let remove_if t pred =
  let removed, kept = List.partition pred t.records in
  if removed = [] then []
  else begin
    Sim.Proc.sleep t.write_ms;
    t.records <- kept;
    t.used <- t.used - List.fold_left (fun acc r -> acc + t.size_of r) 0 removed;
    if tracing t then
      emit t ~name:"nvram.cancel"
        [
          ("removed", Sim.Trace.Int (List.length removed));
          ("used", Sim.Trace.Int t.used);
        ];
    List.rev removed
  end

let take_all t =
  let all = List.rev t.records in
  if all <> [] && tracing t then
    emit t ~name:"nvram.flush"
      [ ("records", Sim.Trace.Int (List.length all)) ];
  t.records <- [];
  t.used <- 0;
  all

let peek_all t = List.rev t.records
