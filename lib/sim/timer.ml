type t = Engine.timer

let after engine ~delay f = Engine.schedule_timer engine ~delay f

let cancel = Engine.cancel_timer

let active = Engine.timer_active

let guard engine waker ~delay exn =
  Proc.Waker.set_guard waker
    (Engine.schedule_timer engine ~delay (fun () ->
         ignore (Proc.Waker.wake_exn waker exn)))

(* Only the tick holds the waker, so nothing else can wake the fiber
   and there is no guard to revoke. *)
let sleep ?armed d =
  let engine = Proc.engine () in
  Proc.suspend (fun w ->
      let tm =
        Engine.schedule_timer engine ~delay:d (fun () ->
            ignore (Proc.Waker.wake w ()))
      in
      match armed with None -> () | Some f -> f tm)
