type 'c t = {
  make : int -> 'c;
  mutable spine : 'c array;  (* the chunks made, then spare room *)
  mutable made : int;
}

let bits = 10
let size = 1 lsl bits
let create make = { make; spine = [||]; made = 0 }

let make_upto v k =
  if k < 0 then invalid_arg "Chunked.chunk";
  while v.made <= k do
    let c = v.make v.made in
    if v.made = Array.length v.spine then begin
      let spine = Array.make (Int.max 8 (2 * v.made)) c in
      Array.blit v.spine 0 spine 0 v.made;
      v.spine <- spine
    end;
    v.spine.(v.made) <- c;
    v.made <- v.made + 1
  done;
  Array.unsafe_get v.spine k

let chunk v k = if k >= 0 && k < v.made then Array.unsafe_get v.spine k else make_upto v k

let entries x = create (fun k -> Array.make (if k = 0 then 64 else size) x)
let get v i = (chunk v (i asr bits)).(i land (size - 1))

let get_or v i x =
  let k = i asr bits and j = i land (size - 1) in
  if k >= v.made then x
  else
    let c = Array.unsafe_get v.spine k in
    if j < Array.length c then c.(j) else x

(* Only the first chunk of [entries] is ever short: it doubles as it is
   written, up to [size].  [grown] holds [x] at [j] already. *)
let set v i x =
  let k = i asr bits and j = i land (size - 1) in
  let c = chunk v k in
  if j < Array.length c then c.(j) <- x
  else begin
    let grown = Array.make (Int.min size (Int.max (j + 1) (2 * Array.length c))) x in
    Array.blit c 0 grown 0 (Array.length c);
    v.spine.(k) <- grown
  end

let to_array v n = Array.init n (get v)
