type result = {
  quotient : Ctmc.t;
  block_of : int array;
  n_blocks : int;
  refine_seconds : float;
}

(* State [s]'s row by target block into [sg]: sorted by block, the rates
   into a block summed in row order. *)
let row_by_block (c : Ctmc.t) block sg s =
  Ctmc.Row_buffer.load sg ~map:block c.Ctmc.targets.(s) c.Ctmc.rates.(s);
  Ctmc.Row_buffer.merge sg

(* Iterated signature refinement: two states stay in the same block iff
   they carry the same label and the same total rate into every current
   block.  This converges to the coarsest ordinary lumping that refines
   the goal labelling. *)
let lump (c : Ctmc.t) =
  let t0 = Unix.gettimeofday () in
  let n = c.Ctmc.n_states in
  let label s =
    (if c.Ctmc.goal.(s) then 1 else 0) lor if c.Ctmc.bad.(s) then 2 else 0
  in
  let block = Array.init n label in
  (* the labels in use, without sorting a list of every state's *)
  let n_blocks =
    let used = Array.make 4 false in
    Array.iter (fun b -> used.(b) <- true) block;
    ref (Array.fold_left (fun k u -> if u then k + 1 else k) 0 used)
  in
  (* block numbers stay below [ids ()]: the labels are 0..3, later
     blocks are the signatures of a pass, numbered from 0 *)
  let ids () = Int.max !n_blocks 4 in
  let next = Array.make n 0 in
  (* The signatures of one pass, numbered from 0 as they are first met:
     signature [k] is its state's block [!own.(k)] and the entries
     [!start.(k)] to [!start.(k + 1) - 1] of [arena], each a target block
     with the total rate into it.  The number [probe] stands for the
     signature being looked up, block [!probe_own] and the entries of
     [sg].  There are far fewer signatures than states (81 for 65,791
     at sensor/filter n = 8), so [own] and [start] grow as they fill,
     [start] always one entry longer than [own]. *)
  let own = ref (Array.make 64 0) and start = ref (Array.make 65 0) in
  let arena = Ctmc.Row_buffer.create () and count = ref 0 in
  let sg = Ctmc.Row_buffer.create () and probe = -1 and probe_own = ref 0 in
  let module Signatures = Hashtbl.Make (struct
    type t = int

    let own k = if k = probe then !probe_own else !own.(k)
    let buffer k = if k = probe then sg else arena
    let base k = if k = probe then 0 else !start.(k)
    let length k = if k = probe then Ctmc.Row_buffer.length sg else !start.(k + 1) - !start.(k)

    let hash k = Ctmc.Row_buffer.hash_slice (buffer k) ~seed:(own k) (base k) (length k)

    let equal j k =
      own j = own k
      && length j = length k
      && Ctmc.Row_buffer.equal_slices (buffer j) (base j) (buffer k) (base k) (length k)
  end) in
  let table = Signatures.create 64 in
  (* The number of state [s]'s signature, numbering it next when it is
     new. *)
  let intern s =
    row_by_block c block sg s;
    probe_own := block.(s);
    match Signatures.find_opt table probe with
    | Some k -> k
    | None ->
      let k = !count in
      if k = Array.length !own then begin
        let grow a len =
          let b = Array.make len 0 in
          Array.blit a 0 b 0 (Array.length a);
          b
        in
        own := grow !own (2 * k);
        start := grow !start ((2 * k) + 1)
      end;
      !own.(k) <- block.(s);
      Ctmc.Row_buffer.append arena sg;
      !start.(k + 1) <- Ctmc.Row_buffer.length arena;
      Signatures.add table k k;
      incr count;
      k
  in
  (* With every state in block 0 the goal partition above can waste an
     index; normalize via the signature pass anyway. *)
  let changed = ref true in
  while !changed do
    changed := false;
    Signatures.clear table;
    Ctmc.Row_buffer.clear arena;
    count := 0;
    for s = 0 to n - 1 do
      next.(s) <- intern s
    done;
    let count = !count in
    if count <> !n_blocks || next <> block then begin
      (* A stable partition re-derives itself (up to renaming); detect
         stability by checking whether the refinement is a bijection of
         the old blocks. *)
      let bijective = ref (count = !n_blocks) in
      if !bijective then begin
        let renames = Array.make (ids ()) (-1) in
        for s = 0 to n - 1 do
          let b = block.(s) in
          if renames.(b) < 0 then renames.(b) <- next.(s)
          else if renames.(b) <> next.(s) then bijective := false
        done
      end;
      if not !bijective then begin
        Array.blit next 0 block 0 n;
        n_blocks := count;
        changed := true
      end
    end
  done;
  (* canonicalize block ids to 0..k-1 in order of first occurrence *)
  let canon = Array.make (ids ()) (-1) in
  let k = ref 0 in
  for s = 0 to n - 1 do
    if canon.(block.(s)) < 0 then begin
      canon.(block.(s)) <- !k;
      incr k
    end;
    block.(s) <- canon.(block.(s))
  done;
  let nb = !k in
  (* quotient rates from one representative per block (lumpability makes
     any representative equivalent) *)
  let reps = Array.make nb (-1) in
  for s = n - 1 downto 0 do
    reps.(block.(s)) <- s
  done;
  let targets = Array.make nb [||] and rates = Array.make nb (Float.Array.create 0) in
  Array.iteri
    (fun b rep ->
      row_by_block c block sg rep;
      targets.(b) <- Ctmc.Row_buffer.targets sg;
      rates.(b) <- Ctmc.Row_buffer.rates sg)
    reps;
  let goal = Array.make nb false in
  for s = 0 to n - 1 do
    if c.Ctmc.goal.(s) then goal.(block.(s)) <- true
  done;
  let init = Hashtbl.create 4 in
  Array.iter
    (fun (s, p) ->
      let b = block.(s) in
      Hashtbl.replace init b
        (p +. Option.value ~default:0.0 (Hashtbl.find_opt init b)))
    c.Ctmc.initial;
  let initial = Hashtbl.fold (fun b p acc -> (b, p) :: acc) init [] in
  let bad = Array.make nb false in
  for s = 0 to n - 1 do
    if c.Ctmc.bad.(s) then bad.(block.(s)) <- true
  done;
  let quotient =
    Ctmc.with_bad (Ctmc.of_arrays ~initial ~targets ~rates ~goal) bad
  in
  {
    quotient;
    block_of = block;
    n_blocks = nb;
    refine_seconds = Unix.gettimeofday () -. t0;
  }
