(** Minimal binary encoder/decoder used by everything that goes to
    "disk": commit blocks, object-table entries, Bullet inodes and the
    directory representation itself. Fixed little-endian integers,
    length-prefixed strings. Decoding raises {!Corrupt} on malformed
    input — on-disk corruption must never crash a server silently. *)

exception Corrupt of string

module Writer : sig
  type t

  val create : unit -> t

  val u8 : t -> int -> unit

  val u32 : t -> int -> unit

  val i64 : t -> int64 -> unit

  val bool : t -> bool -> unit

  val string : t -> string -> unit

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit

  val contents : t -> bytes
end

module Reader : sig
  type t

  val of_bytes : bytes -> t

  val u8 : t -> int

  val u32 : t -> int

  val i64 : t -> int64

  val bool : t -> bool

  val string : t -> string

  val list : t -> (t -> 'a) -> 'a list

end
