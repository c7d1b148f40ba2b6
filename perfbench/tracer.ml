(* The traced run's instrumentation, kept entirely on the benchmark's side
   of the layer boundaries: in-memory spans around calls into the
   library's public functions, and a timing objective guard for the
   evaluation leaf.  Nothing here is active in an untraced run. *)

let now = Unix.gettimeofday

(* --- spans --- *)

type span = {
  id : int;
  name : string;  (** ["<layer>.<call>"]; the layer is the prefix *)
  parent : int;  (** [-1] for a root *)
  start_s : float;
  mutable stop_s : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let open_stack : int list ref = ref []
let next_id = ref 0

let fresh name ~parent ~start_s ~stop_s =
  let s = { id = !next_id; name; parent; start_s; stop_s } in
  incr next_id;
  recorded := s :: !recorded;
  s

let current () = match !open_stack with p :: _ -> p | [] -> -1

(* Spans are opened and closed on the main domain only; worker domains
   never touch this state. *)
let span name f =
  if not !enabled then f ()
  else begin
    let s = fresh name ~parent:(current ()) ~start_s:(now ()) ~stop_s:nan in
    open_stack := s.id :: !open_stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_s <- now ();
        open_stack := List.tl !open_stack)
      f
  end

(* [span] plus the wall seconds it took, measured in traced and untraced
   runs alike. *)
let timed name f =
  let t0 = now () in
  let r = span name f in
  (r, now () -. t0)

(* A span whose bounds were observed elsewhere (generation callbacks,
   serve events arriving at the client).  Returns its id so children can
   hang off it. *)
let record ?parent name ~start_s ~stop_s =
  if not !enabled then -1
  else
    let parent = match parent with Some p -> p | None -> current () in
    (fresh name ~parent ~start_s ~stop_s).id

let duration s = s.stop_s -. s.start_s
let layer s = match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name

let all () = List.rev !recorded

(* Self time: a span's duration minus its children's.  Children of one
   parent never overlap (they are sequential calls on the main domain),
   except the evaluation leaf, whose time is summed over domains. *)
let self_times () =
  let spans = all () in
  let child_sum = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value (Hashtbl.find_opt child_sum s.parent) ~default:0. in
        Hashtbl.replace child_sum s.parent (prev +. duration s))
    spans;
  List.map
    (fun s ->
      let covered = Option.value (Hashtbl.find_opt child_sum s.id) ~default:0. in
      (s, Float.max 0. (duration s -. covered)))
    spans

(* For each layer: its summed self time inside each root span (one
   set-up, one search, one request, one separately timed call), the
   median over the roots of one kind, taking the kind of root where the
   layer spends the most time in total. *)
let layer_self_per_root () =
  let root = Hashtbl.create 256 in
  let root_name = Hashtbl.create 256 in
  let acc = Hashtbl.create 256 in
  List.iter
    (fun (s, self) ->
      (* parents are recorded before their children *)
      let r = if s.parent < 0 then s.id else Option.value (Hashtbl.find_opt root s.parent) ~default:s.parent in
      Hashtbl.replace root s.id r;
      if s.parent < 0 then Hashtbl.replace root_name s.id s.name;
      let key = (layer s, r) in
      Hashtbl.replace acc key (self +. Option.value (Hashtbl.find_opt acc key) ~default:0.))
    (self_times ());
  (* (layer, root kind) -> self times, one per root *)
  let by_kind = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (l, r) v ->
      let k = (l, Option.value (Hashtbl.find_opt root_name r) ~default:"") in
      Hashtbl.replace by_kind k (v :: Option.value (Hashtbl.find_opt by_kind k) ~default:[]))
    acc;
  let best = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (l, _) vs ->
      let total = List.fold_left ( +. ) 0. vs in
      match Hashtbl.find_opt best l with
      | Some (t, _) when t >= total -> ()
      | _ -> Hashtbl.replace best l (total, Kf_util.Stats.median (Array.of_list vs)))
    by_kind;
  Hashtbl.fold (fun l (_, med) out -> (l, med) :: out) best [] |> List.sort compare

(* Decomposition check: children never cover more than their parent,
   and the children of [complete] spans (those whose parts are all
   measured) account for it within a tenth.  A millisecond of absolute
   slack absorbs clock granularity on tiny spans. *)
let decomposition_violations ~complete =
  let spans = all () in
  let sums = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace sums s.parent (duration s +. Option.value (Hashtbl.find_opt sums s.parent) ~default:0.))
    spans;
  List.filter_map
    (fun s ->
      match Hashtbl.find_opt sums s.id with
      | None -> None
      | Some c ->
          let d = duration s in
          let slack = (0.1 *. d) +. 0.001 in
          if c > d +. slack || (List.mem s.name complete && c < d -. slack) then
            Some (Printf.sprintf "%s: children account for %.4f s of %.4f s" s.name c d)
          else None)
    spans

let write_file path =
  let module J = Kf_obs.Json in
  let span_json (s, self) =
    J.Obj
      [
        ("id", J.Int s.id);
        ("name", J.Str s.name);
        ("parent", J.Int s.parent);
        ("start_s", J.Float s.start_s);
        ("dur_s", J.Float (duration s));
        ("self_s", J.Float self);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string (J.Obj [ ("spans", J.Arr (List.map span_json (self_times ()))) ]));
      output_char oc '\n')

(* --- the evaluation leaf --- *)

(* Per-domain accumulators: each domain adds only to its own cell, so the
   hot path never contends; the cells are summed at quiescent points
   (after [Hgga.solve] returns and the pool has joined). *)
type cell = { ns : int Atomic.t; calls : int Atomic.t }

let cells : cell list ref = ref []
let cells_lock = Mutex.create ()

let cell_key =
  Domain.DLS.new_key (fun () ->
      let c = { ns = Atomic.make 0; calls = Atomic.make 0 } in
      Mutex.lock cells_lock;
      cells := c :: !cells;
      Mutex.unlock cells_lock;
      c)

let leaf_reset () =
  Mutex.lock cells_lock;
  List.iter (fun c -> Atomic.set c.ns 0; Atomic.set c.calls 0) !cells;
  Mutex.unlock cells_lock

(* (seconds inside the leaf summed over domains, leaf calls) *)
let leaf_totals () =
  Mutex.lock cells_lock;
  let ns, calls =
    List.fold_left (fun (n, k) c -> (n + Atomic.get c.ns, k + Atomic.get c.calls)) (0, 0) !cells
  in
  Mutex.unlock cells_lock;
  (float_of_int ns *. 1e-9, calls)

(* Wraps [inner] (the guard the CLI installs) with a clock around every
   cache-miss evaluation. *)
let timing_guard (inner : Kf_search.Objective.guard) : Kf_search.Objective.guard =
 fun eval group ->
  let c = Domain.DLS.get cell_key in
  let t0 = now () in
  let v = inner eval group in
  ignore (Atomic.fetch_and_add c.ns (int_of_float ((now () -. t0) *. 1e9)));
  Atomic.incr c.calls;
  v
