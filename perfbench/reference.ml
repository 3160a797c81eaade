(* The reference workload behind the benchmark's machine-speed scale (see
   Common.scaled): a fixed piece of OCaml work, about 1 ms, timed in the
   benchmark's own process.

   It is shaped like the program's hot paths: a small register machine
   whose code is translated into blocks of OCaml closures and run block by
   block through a translation table, with loads and stores to a 64 KB
   memory, data-dependent branches and indirect calls through closures.
   On a shared host the other tenants slow such code down much as they
   slow the program down: in 25-second windows over five minutes of a
   2-vCPU VM, the raw times of a few of `run`'s executions and of a
   `protect` spec varied by 0.116 and 0.084 (standard deviation of the
   logarithm), and by 0.018 and 0.039 once divided, operation by
   operation, by this work's time taken around them (perfbench/README.md
   has the details).

   It is the benchmark's own code, so a change to the program does not
   change it.  It allocates nothing once translated, so the program's heap
   and garbage collector do not enter its time, and it holds no memory to
   speak of, so it does not move the heap and memory figures. *)

type st = { regs : Bytes.t; mem : Bytes.t; mutable pc : int }

let code_len = 4096
let mem_bytes = 65536

(* the code: [code_len] instructions (op, dst, src, imm) over 16 registers,
   from a fixed generator *)
let code =
  let s = ref 0x51f15 in
  let next () =
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s lsr 4
  in
  Array.init code_len (fun _ ->
      let op = next () mod 8 in
      let d = next () land 15 in
      let sr = next () land 15 in
      (op, d, sr, next ()))

let get st r = Bytes.get_int64_le st.regs (r lsl 3)
let set st r v = Bytes.set_int64_le st.regs (r lsl 3) v

(* Translate the block starting at [pc]: up to 24 instructions, ending at
   the first branch; a block that ends without one falls through. *)
let translate pc =
  let rec go pc acc k =
    let op, d, sr, imm = code.(pc) in
    let next = (pc + 1) land (code_len - 1) in
    let target = imm land (code_len - 1) in
    let c = Int64.of_int imm in
    let f, ends =
      match op with
      | 0 -> ((fun st -> set st d (Int64.add (get st d) (get st sr))), false)
      | 1 -> ((fun st -> set st d (Int64.logxor (get st d) c)), false)
      | 2 -> ((fun st -> set st d (Int64.shift_left (get st sr) 3)), false)
      | 3 -> ((fun st -> set st d (Int64.mul (get st d) 0x9E3779B1L)), false)
      | 4 ->
        ( (fun st ->
              set st d (Bytes.get_int64_le st.mem (Int64.to_int (get st sr) land (mem_bytes - 8)))),
          false )
      | 5 ->
        ( (fun st ->
              Bytes.set_int64_le st.mem (Int64.to_int (get st d) land (mem_bytes - 8)) (get st sr)),
          false )
      | 6 ->
        ( (fun st -> st.pc <- (if Int64.logand (get st d) 1L = 0L then target else next)),
          true )
      | _ -> ((fun st -> st.pc <- target), imm land 3 = 0)
    in
    if ends then Array.of_list (List.rev (f :: acc))
    else if k >= 23 then Array.of_list (List.rev ((fun st -> f st; st.pc <- next) :: acc))
    else go next ((fun st -> f st) :: acc) (k + 1)
  in
  go pc [] 0

(* the translation table, filled on first use *)
let blocks : (st -> unit) array option array = Array.make code_len None

let block pc =
  match blocks.(pc) with
  | Some b -> b
  | None ->
    let b = translate pc in
    blocks.(pc) <- Some b;
    b

let state = { regs = Bytes.make 128 '\001'; mem = Bytes.make mem_bytes '\002'; pc = 0 }

(* One unit of reference work: [steps] instructions from a fixed start
   state.  Returns the first register, so the work cannot be dropped. *)
let steps = 140_000

let work () =
  let st = state in
  Bytes.fill st.regs 0 128 '\001';
  Bytes.fill st.mem 0 mem_bytes '\002';
  st.pc <- 0;
  let k = ref 0 in
  while !k < steps do
    let b = block st.pc in
    for i = 0 to Array.length b - 1 do
      b.(i) st
    done;
    k := !k + Array.length b
  done;
  get st 0

(* Translate the code at start-up, before the program allocates anything,
   so that the translation does not shift the program's heap growth. *)
let () = ignore (Sys.opaque_identity (work ()))

(* Run the reference work once; its wall time in seconds. *)
let time () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t0
