type 'a state = Empty | Value of 'a | Failed of exn

type 'a t = {
  mutable state : 'a state;
  readers : 'a Proc.Waker.t Queue.t;
  (* Called synchronously inside [complete], from whatever event filled
     the ivar — no fiber, no extra engine event, no RNG. This is what
     lets a driver loop stop the engine the instant a completion ivar
     fills instead of polling for it on a quantum. Newest first: few
     ivars ever get a watcher, so none pays for a second queue. *)
  mutable watchers : (unit -> unit) list;
}

let create () = { state = Empty; readers = Queue.create (); watchers = [] }

let complete t state =
  match t.state with
  | Value _ | Failed _ -> ()
  | Empty ->
      t.state <- state;
      while not (Queue.is_empty t.readers) do
        let waker = Queue.take t.readers in
        match state with
        | Value v -> ignore (Proc.Waker.wake waker v)
        | Failed e -> ignore (Proc.Waker.wake_exn waker e)
        | Empty -> ()
      done;
      let watchers = t.watchers in
      t.watchers <- [];
      List.iter (fun f -> f ()) (List.rev watchers)

let fill t v = complete t (Value v)

let fill_exn t e = complete t (Failed e)

let is_filled t = match t.state with Value _ | Failed _ -> true | Empty -> false

let peek t = match t.state with Value v -> Some v | Failed _ | Empty -> None

let on_fill t f =
  match t.state with
  | Value _ | Failed _ -> f ()
  | Empty -> t.watchers <- f :: t.watchers

let read ?timeout t =
  match t.state with
  | Value v -> v
  | Failed e -> raise e
  | Empty -> (
      match timeout with
      | None -> Proc.suspend (fun waker -> Queue.push waker t.readers)
      | Some d ->
          let engine = Proc.engine () in
          Proc.suspend (fun waker ->
              Queue.push waker t.readers;
              Timer.guard engine waker ~delay:d Proc.Timeout))
