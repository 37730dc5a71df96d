(* Exact latency samples: the benchmark keeps every value of a run so
   its percentiles are exact, not bucket estimates. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 256 0.0; n = 0 }

let add t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Float.compare s;
  s

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.n - 1 do
    s := !s +. t.a.(i)
  done;
  !s

let mean t = if t.n = 0 then nan else sum t /. float_of_int t.n

(* Linear interpolation between closest ranks (Python's "inclusive"
   method) over a sorted array; [nan] when empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

(* Mean of the middle half (ranks n/4 .. 3n/4): unlike the median it
   does not jump between the clusters a protocol's timers produce, and
   unlike the mean it ignores the rare long outlier; [nan] when empty. *)
let interquartile_mean l =
  let a = Array.of_list (List.sort Float.compare l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n < 4 then Array.fold_left ( +. ) 0.0 a /. float_of_int n
  else
    let lo = n / 4 and hi = n - (n / 4) in
    let s = ref 0.0 in
    for i = lo to hi - 1 do
      s := !s +. a.(i)
    done;
    !s /. float_of_int (hi - lo)

(* Samples strictly above [v]. *)
let beyond sorted v = Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 sorted
