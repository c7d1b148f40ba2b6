module Bitset = Kf_util.Bitset
module Wordset = Kf_util.Wordset

type t = {
  n : int;
  succ : (int, unit) Hashtbl.t array;
  pred : (int, unit) Hashtbl.t array;
  mutable edge_count : int;
  mutable reach : Wordset.t array option; (* reach.(u) = descendants of u incl. u *)
  mutable coreach : Wordset.t array option; (* coreach.(v) = ancestors of v incl. v *)
}

let create n =
  if n < 0 then invalid_arg "Dag.create: negative size";
  {
    n;
    succ = Array.init n (fun _ -> Hashtbl.create 4);
    pred = Array.init n (fun _ -> Hashtbl.create 4);
    edge_count = 0;
    reach = None;
    coreach = None;
  }

let num_nodes t = t.n

let check t v =
  if v < 0 || v >= t.n then invalid_arg (Printf.sprintf "Dag: node %d out of [0,%d)" v t.n)

let has_edge t u v =
  check t u;
  check t v;
  Hashtbl.mem t.succ.(u) v

let add_edge t u v =
  check t u;
  check t v;
  if u = v then invalid_arg "Dag.add_edge: self-loop";
  if not (Hashtbl.mem t.succ.(u) v) then begin
    Hashtbl.replace t.succ.(u) v ();
    Hashtbl.replace t.pred.(v) u ();
    t.edge_count <- t.edge_count + 1;
    t.reach <- None;
    t.coreach <- None
  end

let sorted_keys h = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) h [])

let succs t u =
  check t u;
  sorted_keys t.succ.(u)

let preds t v =
  check t v;
  sorted_keys t.pred.(v)

let num_edges t = t.edge_count

let topo_order_opt t =
  let indeg = Array.init t.n (fun v -> Hashtbl.length t.pred.(v)) in
  (* A min-heap would be overkill: a sorted ready list keeps the order
     stable by node index, and graphs here have a few hundred nodes. *)
  let module IS = Set.Make (Int) in
  let ready = ref IS.empty in
  Array.iteri (fun v d -> if d = 0 then ready := IS.add v !ready) indeg;
  let out = ref [] in
  let count = ref 0 in
  while not (IS.is_empty !ready) do
    let v = IS.min_elt !ready in
    ready := IS.remove v !ready;
    out := v :: !out;
    incr count;
    Hashtbl.iter
      (fun w () ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then ready := IS.add w !ready)
      t.succ.(v)
  done;
  if !count = t.n then Some (List.rev !out) else None

let is_acyclic t = topo_order_opt t <> None

let topo_sort t =
  match topo_order_opt t with
  | Some order -> order
  | None -> invalid_arg "Dag.topo_sort: graph has a cycle"

let compute_reach t neighbors order =
  (* Each node's set is the union of its neighbors' sets, so neighbors must
     be processed first: reverse topological order for descendants, forward
     for ancestors — O(V * V/62 * E) with word bitsets. *)
  let sets =
    Array.init t.n (fun v ->
        let s = Wordset.create t.n in
        Wordset.add s v;
        s)
  in
  List.iter
    (fun v -> Hashtbl.iter (fun w () -> Wordset.union_into sets.(v) sets.(w)) (neighbors v))
    order;
  sets

let topo_or_fail t =
  match topo_order_opt t with
  | Some o -> o
  | None -> invalid_arg "Dag: reachability requires an acyclic graph"

let reach_rows t =
  match t.reach with
  | Some r -> r
  | None ->
      let r = compute_reach t (fun v -> t.succ.(v)) (List.rev (topo_or_fail t)) in
      t.reach <- Some r;
      r

let coreach_rows t =
  match t.coreach with
  | Some r -> r
  | None ->
      let r = compute_reach t (fun v -> t.pred.(v)) (topo_or_fail t) in
      t.coreach <- Some r;
      r

let reaches t u v =
  check t u;
  check t v;
  Wordset.mem (reach_rows t).(u) v

let to_bitset t s = Bitset.of_list t.n (Wordset.to_list s)

let descendants t u =
  check t u;
  to_bitset t (reach_rows t).(u)

let ancestors t v =
  check t v;
  to_bitset t (coreach_rows t).(v)

let on_some_path t a b =
  check t a;
  check t b;
  if not (reaches t a b) then []
  else begin
    let to_b = (coreach_rows t).(b) in
    List.filter (Wordset.mem to_b) (Wordset.to_list (reach_rows t).(a))
  end

let path_closure t s =
  (* v lies on a path between two members iff v is reachable from some
     member and some member is reachable from v, so the closure step is
     (⋃ reach) ∩ (⋃ coreach); iterate to fixpoint (new members can extend
     both unions).  Word-bitset unions make each step near-linear. *)
  if Bitset.universe_size s <> t.n then invalid_arg "Dag.path_closure: universe size mismatch";
  let reach = reach_rows t and coreach = coreach_rows t in
  let closure = Wordset.of_list t.n (Bitset.to_list s) in
  let continue_ = ref true in
  while !continue_ do
    let forward = Wordset.create t.n and backward = Wordset.create t.n in
    Wordset.iter
      (fun v ->
        Wordset.union_into forward reach.(v);
        Wordset.union_into backward coreach.(v))
      closure;
    continue_ := false;
    Array.iteri
      (fun w f ->
        let fresh = f land backward.(w) land lnot closure.(w) in
        if fresh <> 0 then begin
          closure.(w) <- closure.(w) lor fresh;
          continue_ := true
        end)
      forward
  done;
  to_bitset t closure

let transpose t =
  let g = create t.n in
  for u = 0 to t.n - 1 do
    Hashtbl.iter (fun v () -> add_edge g v u) t.succ.(u)
  done;
  g

let of_edges n edges =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) edges;
  g

let pp ppf t =
  Format.fprintf ppf "dag(%d nodes, %d edges)" t.n t.edge_count;
  for u = 0 to t.n - 1 do
    match succs t u with
    | [] -> ()
    | ss ->
        Format.fprintf ppf "@.  %d -> %a" u
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
             Format.pp_print_int)
          ss
  done
