(** Per-node RPC endpoint: client transactions and server registration.

    One transport per node multiplexes every service the node offers and
    every outstanding client call, mirroring the Amoeba kernel's RPC
    machinery. *)

type t

(** Raised by {!trans} when a transaction cannot be completed: the
    service was never located, or every attempt timed out / bounced. *)
exception Rpc_failure of string

type config = {
  locate_window : float;
      (** how long a locate broadcast collects HEREIS answers (ms) *)
  trans_timeout : float;  (** default per-attempt reply timeout (ms) *)
  max_attempts : int;  (** request attempts before giving up *)
  locate_rounds : int;
      (** locate broadcasts before giving up. Round [k] that comes back
          empty is followed by a pause of [locate_backoff *. 2^(k-1)], so
          a service nobody answers for is given up on after
          [locate_rounds *. locate_window +. locate_backoff *.
          (2^locate_rounds - 1)] ms — 83 ms with {!default_config} *)
  locate_backoff : float;
      (** pause after the first empty locate round (ms); each further
          empty round doubles it (5, 10, 20, 40 ms by default). A round
          that finds a server never pauses. *)
}

val default_config : config

(** [create net nic ()] builds a transport on [nic] and starts its
    dispatcher fiber. Call once per node incarnation. *)
val create : ?config:config -> Simnet.Network.t -> Simnet.Network.nic -> t

val node_id : t -> int

(** The node this transport runs on. *)
val node : t -> Sim.Node.t

(** The NIC this transport uses — other protocol layers on the same node
    (e.g. group communication) attach their sockets to the same NIC. *)
val nic : t -> Simnet.Network.nic

(** Server side. [serve t ~port ~threads handler] registers a service and
    starts [threads] worker fibers. A worker picks up one request at a
    time; a request arriving while no worker is blocked receiving is
    bounced with NOTHERE. The handler receives the client node id and the
    request body and returns the reply body; it may block (RPC, disk,
    CPU). *)
val serve :
  t ->
  port:string ->
  ?threads:int ->
  (client:int -> Simnet.Payload.t -> Simnet.Payload.t) ->
  unit

(** [stop_serving t ~port] deregisters the service: subsequent locates are
    not answered and requests are bounced. Worker fibers drain and park. *)
val stop_serving : t -> port:string -> unit

(** Client side. [trans t ~port body] performs one transaction: locate
    (cached), send request, await reply. Retries around NOTHERE bounces,
    timeouts and stale cache entries; raises {!Rpc_failure} when the
    service is unreachable. Must run inside a fiber on the transport's
    node. *)
val trans :
  t -> port:string -> ?timeout:float -> ?size:int -> Simnet.Payload.t ->
  Simnet.Payload.t

(** The cached server list for [port], in first-replied-first order
    (tests observe the balancing behaviour through this). *)
val cached_servers : t -> port:string -> int list

(** Drop the cache entry for [port] (e.g. after a known failover). *)
val invalidate_cache : t -> port:string -> unit
