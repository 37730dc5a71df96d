(** Per-op latency recording shared by the three server kinds: each
    client-facing request lands in the ["dirsvc.op_ms"] histogram,
    labelled [op] first and then [labels], plus one ["dirsvc"] ["op"]
    trace event carrying the outcome. *)

type t

(** [create engine ~node ?metrics ~labels ~server ()] — [labels] follow
    the op label in every histogram key (e.g. [[("server", "2")]], with
    a trailing shard label in sharded deployments); [server] is the
    trace event's ["server"] attribute. Without [metrics] only the
    trace event is emitted. *)
val create :
  Sim.Engine.t ->
  node:int ->
  ?metrics:Sim.Metrics.t ->
  labels:(string * string) list ->
  server:Sim.Trace.attr ->
  unit ->
  t

(** [time t ~op f] runs the handler [f] and records its latency. *)
val time : t -> op:string -> (unit -> Wire.reply) -> Wire.reply
