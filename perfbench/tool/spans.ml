(* In-memory span recorder.  A span is one timed call into a layer: its
   name, start and end on the monotonic clock, the span that caused it
   and the arrival it served.  Spans live in flat arrays grown by
   doubling, so recording one costs two clock reads and five stores;
   they are written out once, when the run ends.  A disabled recorder
   reads no clock and stores nothing, which is how the untraced
   in-process pass runs the very same code. *)

type t = {
  enabled : bool;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable n : int;
  mutable name : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable parent : int array;
  mutable seq : int array;
}

let now () = Int64.to_int (Monotonic_clock.now ())

let create ?(capacity = 1024) ~enabled () =
  let cap = max 16 capacity in
  {
    enabled;
    names = Hashtbl.create 32;
    name_of = [||];
    n = 0;
    name = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    parent = Array.make cap 0;
    seq = Array.make cap 0;
  }

let enabled t = t.enabled

let name t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Array.length t.name_of in
    Hashtbl.replace t.names s i;
    t.name_of <- Array.append t.name_of [| s |];
    i

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- ext t.name;
  t.t0 <- ext t.t0;
  t.t1 <- ext t.t1;
  t.parent <- ext t.parent;
  t.seq <- ext t.seq

let add t ~name ~parent ~seq t0 t1 =
  if not t.enabled then -1
  else begin
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.name.(i) <- name;
    t.t0.(i) <- t0;
    t.t1.(i) <- t1;
    t.parent.(i) <- parent;
    t.seq.(i) <- seq;
    t.n <- i + 1;
    i
  end

let stamp t = if t.enabled then now () else 0

(* Root spans: opened before their children exist, closed after. *)
let open_root t s = add t ~name:(name t s) ~parent:(-1) ~seq:(-1) (stamp t) 0

let close t id = if id >= 0 then t.t1.(id) <- now ()

let durations t s =
  match Hashtbl.find_opt t.names s with
  | None -> [||]
  | Some k ->
    let out = ref [] in
    for i = t.n - 1 downto 0 do
      if t.name.(i) = k then
        out := (float_of_int (t.t1.(i) - t.t0.(i)) *. 1e-9) :: !out
    done;
    Array.of_list !out

let busy t s = Array.fold_left ( +. ) 0. (durations t s)

(* Nearest-rank percentile of an unsorted sample; 0 when empty. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let r = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) r))
  end

let layer_of s =
  match String.index_opt s '.' with Some i -> String.sub s 0 i | None -> s

(* Self time per layer: each span's duration minus the part of it that
   its children cover (children of one span never overlap: every call
   here is sequential on the recording domain). *)
let self_by_layer t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (t.t1.(i) - t.t0.(i))
  done;
  let acc = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let l = layer_of t.name_of.(t.name.(i)) in
    let self = t.t1.(i) - t.t0.(i) - child.(i) in
    let prev = Option.value ~default:0 (Hashtbl.find_opt acc l) in
    Hashtbl.replace acc l (prev + self)
  done;
  Hashtbl.fold (fun l ns xs -> (l, float_of_int ns *. 1e-9) :: xs) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let count t = t.n

let write t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tname\tstart_ns\tend_ns\tparent\tseq\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i t.name_of.(t.name.(i))
          t.t0.(i) t.t1.(i) t.parent.(i) t.seq.(i)
      done)
