type t = int array

let bits = 62
let words n = (n + bits - 1) / bits
let create n = Array.make (words n) 0

let check i = if i < 0 then invalid_arg (Printf.sprintf "Wordset: negative index %d" i)

let mem s i =
  check i;
  s.(i / bits) land (1 lsl (i mod bits)) <> 0

let add s i =
  check i;
  let w = i / bits in
  s.(w) <- s.(w) lor (1 lsl (i mod bits))

let remove s i =
  check i;
  let w = i / bits in
  s.(w) <- s.(w) land lnot (1 lsl (i mod bits))

let union_into dst src =
  if Array.length src <> Array.length dst then invalid_arg "Wordset.union_into: size mismatch";
  for w = 0 to Array.length dst - 1 do
    Array.unsafe_set dst w (Array.unsafe_get dst w lor Array.unsafe_get src w)
  done

let of_list n l =
  let s = create n in
  List.iter (add s) l;
  s

(* 2 is a primitive root modulo 67, so [2^k mod 67] differs for every
   [k < 66]: one division finds the index of an isolated bit. *)
let log2_of_bit =
  let t = Array.make 67 0 in
  for k = 0 to bits - 1 do
    t.((1 lsl k) mod 67) <- k
  done;
  t

let lowest w = Array.unsafe_get log2_of_bit ((w land -w) mod 67)

let iter f s =
  for w = 0 to Array.length s - 1 do
    let x = ref (Array.unsafe_get s w) in
    while !x <> 0 do
      let b = !x land - !x in
      f ((w * bits) + Array.unsafe_get log2_of_bit (b mod 67));
      x := !x lxor b
    done
  done

let to_list s =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) s;
  List.rev !acc
