type t = { wait_queue : unit Proc.Waker.t Queue.t }

let create () = { wait_queue = Queue.create () }

let wait ?timeout t =
  match timeout with
  | None -> Proc.suspend (fun waker -> Queue.push waker t.wait_queue)
  | Some d ->
      let engine = Proc.engine () in
      Proc.suspend (fun waker ->
          Queue.push waker t.wait_queue;
          Timer.guard engine waker ~delay:d Proc.Timeout)

(* Wake exactly the fibers waiting now, oldest first: a woken fiber
   resumes in a later event, so nothing re-enters the queue meanwhile. *)
let broadcast t =
  while not (Queue.is_empty t.wait_queue) do
    ignore (Proc.Waker.wake (Queue.take t.wait_queue) ())
  done

let await ?timeout t pred =
  (* The overall timeout is budgeted across successive waits. *)
  match timeout with
  | None ->
      while not (pred ()) do
        wait t
      done
  | Some budget ->
      let deadline = Proc.now () +. budget in
      while not (pred ()) do
        let remaining = deadline -. Proc.now () in
        if remaining <= 0.0 then raise Proc.Timeout;
        wait ~timeout:remaining t
      done
