type 'a t = {
  queue : 'a Queue.t;
  (* Oldest first. Dead wakers (crashed node, fired timeout) are pruned
     lazily as they reach the front — [send] used to rebuild the whole
     list per delivery, which made every receive O(waiters). *)
  wait_queue : 'a Proc.Waker.t Queue.t;
  (* The untimed [recv]'s register function, built once per mailbox
     rather than once per blocking receive. *)
  park : 'a Proc.Waker.t -> unit;
}

let create () =
  let wait_queue = Queue.create () in
  {
    queue = Queue.create ();
    wait_queue;
    park = (fun waker -> Queue.push waker wait_queue);
  }

(* Hand [v] to the oldest still-viable waiter; [wake] refuses dead
   wakers, so each is discarded the first time it surfaces. *)
let rec send t v =
  if Queue.is_empty t.wait_queue then Queue.push v t.queue
  else if not (Proc.Waker.wake (Queue.take t.wait_queue) v) then send t v

let recv ?timeout t =
  if not (Queue.is_empty t.queue) then Queue.take t.queue
  else
    match timeout with
    | None -> Proc.suspend t.park
    | Some d ->
        let engine = Proc.engine () in
        Proc.suspend (fun waker ->
            t.park waker;
            Timer.guard engine waker ~delay:d Proc.Timeout)

let length t = Queue.length t.queue

let count_viable n waker = if Proc.Waker.is_viable waker then n + 1 else n

(* Count viable waiters without allocating. Dead ones (a crash, a fired
   timeout) are rare: only when the count finds some is the queue
   rebuilt without them. *)
let waiters t =
  let live = Queue.fold count_viable 0 t.wait_queue in
  if live < Queue.length t.wait_queue then begin
    let kept = Queue.create () in
    Queue.iter
      (fun waker -> if Proc.Waker.is_viable waker then Queue.push waker kept)
      t.wait_queue;
    Queue.clear t.wait_queue;
    Queue.transfer kept t.wait_queue
  end;
  live
