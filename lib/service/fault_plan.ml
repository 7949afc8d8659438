module Make (K : sig
  type op
  type mode
end) =
struct
  type fault = { op : K.op; after : int; mode : K.mode }

  (* chaos draws must be deterministic and private: the global [Random]
     state belongs to the tests and the tuner *)
  type chaos = {
    mutable lcg : int64;
    rate : float;
    classes : K.mode array;
    mutable next_class : int;
  }

  type plan = Triggers of fault list | Chaos of chaos

  type t = {
    mutable plan : plan;
    counts : (K.op, int) Hashtbl.t;
    mutable fired : int;
    mu : Mutex.t;
        (* server connections are threads and the daemon's tuning domains
           share one disk handle: counters and triggers must agree *)
  }

  let make plan =
    { plan; counts = Hashtbl.create 8; fired = 0; mu = Mutex.create () }

  let real () = make (Triggers [])
  let faulty faults = make (Triggers faults)

  let chaos ~rate ~seed classes =
    make
      (Chaos
         {
           lcg = Int64.of_int (seed lxor 0x5deece66);
           rate = Float.max 0. (Float.min 1. rate);
           classes;
           next_class = 0;
         })

  let count t op = Option.value (Hashtbl.find_opt t.counts op) ~default:0
  let op_count t op = Mutex.protect t.mu (fun () -> count t op)
  let injected t = Mutex.protect t.mu (fun () -> t.fired)

  (* 48-bit LCG (the java.util.Random constants): tiny, portable, and
     deterministic across OCaml versions, unlike [Random.State] *)
  let lcg_next st =
    st.lcg <-
      Int64.logand
        (Int64.add (Int64.mul st.lcg 0x5deece66dL) 0xbL)
        0xffff_ffff_ffffL;
    Int64.to_float (Int64.shift_right_logical st.lcg 17) /. 2147483648.

  let trip t op =
    Mutex.protect t.mu (fun () ->
        let c = count t op in
        Hashtbl.replace t.counts op (c + 1);
        let mode =
          match t.plan with
          | Triggers faults ->
              let rec pick acc = function
                | [] -> None
                | f :: rest when f.op = op && f.after = c ->
                    t.plan <- Triggers (List.rev_append acc rest);
                    Some f.mode
                | f :: rest -> pick (f :: acc) rest
              in
              pick [] faults
          | Chaos st ->
              if lcg_next st < st.rate then begin
                let k = st.next_class in
                st.next_class <- (k + 1) mod Array.length st.classes;
                Some st.classes.(k)
              end
              else None
        in
        if Option.is_some mode then t.fired <- t.fired + 1;
        mode)
end
