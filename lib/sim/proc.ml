exception Timeout

exception Cancelled of string

type ctx = {
  engine : Engine.t;
  node : Node.t;
  incarnation : int;
  name : string;
  self : ctx option; (* [Some] of this very record: the slot's value *)
}

let viable ctx =
  Node.is_alive ctx.node && Node.incarnation ctx.node = ctx.incarnation

(* The running fiber's ctx: set when a fiber is entered (booted or
   resumed) and restored when it suspends or finishes. The slot is
   domain-local because [Sim.Pool] runs engines on several domains at
   once. It holds [ctx.self], built once at boot, so entering a fiber
   swaps a pointer and allocates nothing. *)
let running : ctx option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current fn =
  match !(Domain.DLS.get running) with
  | Some ctx -> ctx
  | None -> invalid_arg ("Sim.Proc." ^ fn ^ ": called outside a fiber")

(* Run [f a b] as the fiber of [ctx], then put the previous occupant of
   the slot back — also when [f] raises, since a fiber's uncaught
   exception aborts the run and the slot must not keep a dead fiber. *)
let within ctx f a b =
  let slot = Domain.DLS.get running in
  let saved = !slot in
  slot := ctx.self;
  match f a b with
  | () -> slot := saved
  | exception e ->
      slot := saved;
      raise e

module Waker = struct
  type 'a t = {
    ctx : ctx;
    k : ('a, unit) Effect.Deep.continuation;
    mutable used : bool;
    (* A timeout racing this wakeup ({!Timer.guard}): canceled when the
       waker is consumed, so the guard is tombstoned instead of popping
       later as a dead event. *)
    mutable guard : Engine.timer option;
  }

  let is_viable w = (not w.used) && viable w.ctx

  let set_guard w tm = w.guard <- Some tm

  let consumed w =
    w.used <- true;
    match w.guard with
    | None -> ()
    | Some tm ->
        w.guard <- None;
        Engine.cancel_timer tm

  (* The resume event re-checks viability: the node may crash between
     the wakeup and the event. *)
  let resume w v =
    if viable w.ctx then within w.ctx Effect.Deep.continue w.k v

  let resume_exn w e =
    if viable w.ctx then within w.ctx Effect.Deep.discontinue w.k e

  let fire w f v =
    if is_viable w then begin
      consumed w;
      Engine.schedule_call w.ctx.engine ~delay:0.0 f w v;
      true
    end
    else false

  let wake w v = fire w resume v

  let wake_exn w e = fire w resume_exn e
end

type _ Effect.t += Suspend : ('a Waker.t -> unit) -> 'a Effect.t

let run_fiber ctx f =
  let open Effect.Deep in
  match_with f ()
    {
      retc = ignore;
      (* A fiber's uncaught exception aborts the whole run: protocol code
         is expected to handle its own errors, so anything escaping is a
         bug we want tests to see immediately. *)
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  register { Waker.ctx; k; used = false; guard = None })
          | _ -> None);
    }

let boot engine node ?(name = "fiber") f =
  Engine.schedule engine ~delay:0.0 (fun () ->
      if Node.is_alive node then
        let incarnation = Node.incarnation node in
        let rec ctx = { engine; node; incarnation; name; self = Some ctx } in
        within ctx run_fiber ctx f)

let suspend register = Effect.perform (Suspend register)

let engine () = (current "engine").engine

let now () = Engine.now (current "now").engine

let spawn ?name f =
  let ctx = current "spawn" in
  boot ctx.engine ctx.node ?name f

let wake w () = ignore (Waker.wake w ())

let sleep d =
  let engine = (current "sleep").engine in
  suspend (fun w -> Engine.schedule_call engine ~delay:d wake w ())

let yield () = sleep 0.0

let with_timeout d f =
  let ctx = current "with_timeout" in
  suspend (fun w ->
      Waker.set_guard w
        (Engine.schedule_timer ctx.engine ~delay:d (fun () ->
             ignore (Waker.wake_exn w Timeout)));
      boot ctx.engine ctx.node ~name:(ctx.name ^ ".timed") (fun () ->
          match f () with
          | v -> ignore (Waker.wake w v)
          | exception e -> ignore (Waker.wake_exn w e)))
