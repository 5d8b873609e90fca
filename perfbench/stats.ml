(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between the closest ranks; [q] in [0, 1]. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Geometric mean with every value floored at [floor], so a sub-floor
   unit (c3540/XC3090 is k = 1 and finishes in microseconds) cannot
   drag the mean towards zero. *)
let gmean ~floor xs =
  match xs with
  | [] -> nan
  | _ ->
    let logs = List.map (fun x -> log (Float.max floor x)) xs in
    exp (sum logs /. float_of_int (List.length xs))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Seeded in-place permutation (Fisher-Yates): the interleaving order of
   units and requests. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
