(** One-copy-serializability checks (paper §2's correctness bar).

    Two complementary checks:

    {ul
    {- {b Convergence}: after quiescing, every replica must hold the
       identical store. Because all replicas run the same pure
       semantics over what should be the same total order of updates,
       divergence pinpoints a protocol bug.}
    {- {b Replay}: a server's applied-operation log, replayed through
       the pure {!Directory.apply} from the empty store, must
       reproduce its live store — incremental application cannot drift
       from the sequential specification. Combined with convergence
       and the total order, this gives one-copy serializability for
       completed updates.}} *)

type divergence = {
  server_a : int;
  server_b : int;
  detail : string;
}

val check_convergence : (int * Directory.store) list -> (unit, divergence) result

val check_replay :
  log:Group_server.applied list -> Directory.store -> (unit, string) result

(** Exactly-once: every (origin, uid) in the log appears at most once —
    the guard against re-granted joins, replayed retransmissions and
    duplicated client retries being applied twice. *)
val check_exactly_once : Group_server.applied list -> (unit, string) result

val divergence_to_string : divergence -> string
