type t = { n : int; words : Bytes.t }

(* One byte per 8 members; Bytes gives structural compare/hash for free via
   the primitives below. *)

let words_for n = (n + 7) / 8

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative size";
  { n; words = Bytes.make (words_for n) '\000' }

let universe_size t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.n)

let add t i =
  check t i;
  let b = Char.code (Bytes.get t.words (i / 8)) in
  Bytes.set t.words (i / 8) (Char.chr (b lor (1 lsl (i mod 8))))

let remove t i =
  check t i;
  let b = Char.code (Bytes.get t.words (i / 8)) in
  Bytes.set t.words (i / 8) (Char.chr (b land lnot (1 lsl (i mod 8)) land 0xFF))

let mem t i =
  check t i;
  Char.code (Bytes.get t.words (i / 8)) land (1 lsl (i mod 8)) <> 0

let singleton n i =
  let t = create n in
  add t i;
  t

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t

let copy t = { n = t.n; words = Bytes.copy t.words }

let popcount_byte =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun b -> table.(b)

let cardinal t =
  let acc = ref 0 in
  for w = 0 to Bytes.length t.words - 1 do
    acc := !acc + popcount_byte (Char.code (Bytes.get t.words w))
  done;
  !acc

let is_empty t =
  let rec go w = w >= Bytes.length t.words || (Bytes.get t.words w = '\000' && go (w + 1)) in
  go 0

let same_universe a b =
  if a.n <> b.n then invalid_arg "Bitset: universe size mismatch"

let equal a b =
  same_universe a b;
  Bytes.equal a.words b.words

let binop op a b =
  same_universe a b;
  let out = create a.n in
  for w = 0 to Bytes.length a.words - 1 do
    let v = op (Char.code (Bytes.get a.words w)) (Char.code (Bytes.get b.words w)) in
    Bytes.set out.words w (Char.chr (v land 0xFF))
  done;
  out

let union a b = binop ( lor ) a b
let inter a b = binop ( land ) a b
let diff a b = binop (fun x y -> x land lnot y) a b

let subset a b =
  same_universe a b;
  let rec go w =
    w >= Bytes.length a.words
    || Char.code (Bytes.get a.words w) land lnot (Char.code (Bytes.get b.words w)) land 0xFF = 0
       && go (w + 1)
  in
  go 0

let disjoint a b =
  same_universe a b;
  let rec go w =
    w >= Bytes.length a.words
    || Char.code (Bytes.get a.words w) land Char.code (Bytes.get b.words w) = 0 && go (w + 1)
  in
  go 0

let union_into dst src =
  same_universe dst src;
  for w = 0 to Bytes.length dst.words - 1 do
    let v = Char.code (Bytes.get dst.words w) lor Char.code (Bytes.get src.words w) in
    Bytes.set dst.words w (Char.chr v)
  done

let clear t = Bytes.fill t.words 0 (Bytes.length t.words) '\000'

let intersects_outside a b ~outside =
  same_universe a b;
  same_universe a outside;
  let rec go w =
    w < Bytes.length a.words
    && (Char.code (Bytes.get a.words w)
        land Char.code (Bytes.get b.words w)
        land lnot (Char.code (Bytes.get outside.words w))
        land 0xFF
        <> 0
       || go (w + 1))
  in
  go 0

(* Zero bytes are skipped (and with them by [fold], [to_list] and
   [choose]); bits past [n] are never set, so the last byte needs no
   bound. *)
let iter f t =
  for w = 0 to Bytes.length t.words - 1 do
    let b = Char.code (Bytes.unsafe_get t.words w) in
    if b <> 0 then
      for j = 0 to 7 do
        if b land (1 lsl j) <> 0 then f ((w * 8) + j)
      done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let choose t =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) t;
    raise Not_found
  with Found i -> i

let compare a b =
  let c = Stdlib.compare a.n b.n in
  if c <> 0 then c else Bytes.compare a.words b.words

let hash t = Hashtbl.hash (t.n, Bytes.to_string t.words)

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (to_list t)
