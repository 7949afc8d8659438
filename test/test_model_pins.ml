(* Model-value pins.  The analytic model's screen score
   ({!Explore.screen_mapping}) of the first 16 mappings of each suite
   kind's representative operator (batch 16) on a100, v100 and avx512,
   and the predicted and measured seconds of the plans of two genetic
   searches ({!Explore.search_mapping}), recorded as [%h] before the
   square-root split menus and the monomorphic model arithmetic, and
   asserted bit-exactly.  The comparison with the recompute-everything
   reference cannot catch a change in [Codegen.timing_prepared] or
   [Perf_model.predict_summary]: the reference runs them too. *)

open Amos
module Ops = Amos_workloads.Ops
module Suites = Amos_workloads.Suites

(* preset, suite kind, screen score of each of the first 16 mappings *)
let screen_pins =
  [
    ( "a100",
      "GMV",
      [|
        0x1.6faeae291ca3ep-20; 0x1.6faeae291ca3ep-20; 0x1.80a6fd1751298p-20;
        0x1.97476654ec864p-20; 0x1.7556c878837b1p-20
      |] );
    ( "a100",
      "GMM",
      [|
        0x1.28f965489721fp-13; 0x1.05a9a1a876ebbp-13; 0x1.171b571a1872cp-12;
        0x1.b0bbdcba3b4ecp-14; 0x1.97476654ec864p-14
      |] );
    ( "a100",
      "C1D",
      [|
        0x1.7556c878837b1p-19; 0x1.4815f5fd4cc18p-19; 0x1.be9224f68d849p-18;
        0x1.26255820e3b65p-18; 0x1.6cdaa10169385p-19; 0x1.6cdaa10169385p-19;
        0x1.54f44ec43dddbp-18; 0x1.cfd86d6ef0ee3p-19; 0x1.919f4c0585af1p-18;
        0x1.10c3723697e49p-17; 0x1.426ddbade5ea4p-18; 0x1.9c511dc3a41ep-19;
        0x1.49da7e361ce4dp-18; 0x1.2bcd72704a8d8p-18; 0x1.9c511dc3a41ep-19;
        0x1.80a6fd1751298p-19
      |] );
    ( "a100",
      "C2D",
      [|
        0x1.2db93970da966p-15; 0x1.8cf3af140c041p-16; 0x1.c5e6a4ec60a5fp-16;
        0x1.03da389f843dbp-15; 0x1.008d7e9bdd958p-15; 0x1.c817fd86df42ap-15;
        0x1.9a7bfdc62f559p-16; 0x1.c4e2ba7519ad6p-16; 0x1.8cf3af140c041p-16;
        0x1.9a7bfdc62f559p-16; 0x1.5fd7fe1796496p-15; 0x1.443708168e2d5p-16;
        0x1.7342e9addcf71p-16; 0x1.6b1eea56b3b7fp-16; 0x1.2533fe68fd3d2p-15;
        0x1.08021242bf43ap-15
      |] );
    ( "a100",
      "C3D",
      [|
        0x1.c495d62947e18p-13; 0x1.cf1c4c420e04cp-13; 0x1.11a7fe841f8e7p-12;
        0x1.34bd882c09587p-13; 0x1.24bb518d0a008p-13; 0x1.33dcfe54a3803p-13;
        0x1.047feae527e2ap-13; 0x1.fd2890ee70ddcp-14; 0x1.22f29bf5f75a3p-13;
        0x1.10572fc106cap-13; 0x1.10572fc106cap-13; 0x1.fd2890ee70ddcp-14;
        0x1.08a274b80802bp-12; 0x1.cf1c4c420e04cp-13; 0x1.11a7fe841f8e7p-12;
        0x1.70e2742750fbep-13
      |] );
    ( "a100",
      "T2D",
      [|
        0x1.792787cd113cp-14; 0x1.035f39aba4f12p-14; 0x1.1801165a629c5p-14;
        0x1.b938043155917p-15; 0x1.e3a4c984d8df8p-15; 0x1.2db93970da966p-14;
        0x1.90ea48bb98d43p-15; 0x1.008d7e9bdd958p-14; 0x1.6b1eea56b3b7ep-15;
        0x1.d51ffd74c861dp-15; 0x1.9377af0b00938p-14; 0x1.5a589e1f37f04p-14;
        0x1.9a7bfdc62f559p-15; 0x1.b5b0b151a656fp-14; 0x1.008d7e9bdd958p-14;
        0x1.08021242bf43ap-14
      |] );
    ( "a100",
      "GRP",
      [|
        0x1.6b1eea56b3b8p-16; 0x1.3d64243f2e52bp-17; 0x1.3d64243f2e52bp-17;
        0x1.3d64243f2e52bp-17; 0x1.3d64243f2e52bp-17; 0x1.6b1eea56b3b8p-16;
        0x1.3cc5c15e7f132p-17; 0x1.3cc5c15e7f132p-17; 0x1.3cc5c15e7f132p-17;
        0x1.3cc5c15e7f132p-17; 0x1.3dbb0d0bdd41p-16; 0x1.0f84eee348598p-17;
        0x1.0f84eee348598p-17; 0x1.0f84eee348598p-17; 0x1.0f84eee348598p-17;
        0x1.3dbb0d0bdd41p-16
      |] );
    ( "a100",
      "DIL",
      [|
        0x1.3e395a95068aap-12; 0x1.31758cbfb164bp-12; 0x1.37d2aa590516dp-12;
        0x1.31758cbfb164bp-13; 0x1.9a7bfdc62f559p-14; 0x1.70e2742750fbep-13;
        0x1.37d2aa590516dp-13; 0x1.9efec2ac3b1b5p-14; 0x1.4750ef74b6457p-13;
        0x1.ea01e71e2c918p-14; 0x1.60d89ba00aae4p-13; 0x1.1e66d1861f7cdp-13;
        0x1.d08d70b8ddc92p-13; 0x1.99252b51e3d6ep-13; 0x1.1801165a629c5p-13;
        0x1.22f29bf5f75a3p-12
      |] );
    ( "a100",
      "DEP",
      [|
        0x1.db28a20dbe9cbp-13; 0x1.db28a20dbe9c9p-13; 0x1.9fc38dcc06c92p-13;
        0x1.9fc38dcc06c92p-13; 0x1.9fc38dcc06c92p-13; 0x1.9fc38dcc06c91p-13;
        0x1.9fc38dcc06c92p-13; 0x1.db28a20dbe9c9p-14; 0x1.db28a20dbe9cbp-14;
        0x1.9fc38dcc06c92p-14; 0x1.9fc38dcc06c91p-13; 0x1.9fc38dcc06c91p-14;
        0x1.9fc38dcc06c91p-14; 0x1.9fc38dcc06c92p-14; 0x1.9fc38dcc06c92p-12;
        0x1.9fc38dcc06c91p-12
      |] );
    ( "a100",
      "CAP",
      [|
        0x1.d2de9b01c27ecp-15; 0x1.83ee2547f4783p-16; 0x1.373f12012c549p-16;
        0x1.b46be9f0f3074p-16; 0x1.e6d3585182b87p-16; 0x1.171b571a1872cp-16;
        0x1.373f12012c548p-16; 0x1.49da7e361ce4dp-16; 0x1.d2de9b01c27ecp-17;
        0x1.be9224f68d848p-17; 0x1.22f29bf5f75a2p-16; 0x1.ec20f0fbf3224p-17;
        0x1.b46be9f0f3074p-17; 0x1.22f29bf5f75a2p-15; 0x1.b46be9f0f3074p-17;
        0x1.83ee2547f4783p-17
      |] );
    ( "a100",
      "BCV",
      [|
        0x1.db28a20dbe9cbp-19; 0x1.0f84eee348599p-20; 0x1.4eed9bb8ea236p-20;
        0x1.53662a9c1a6fep-20; 0x1.99252b51e3d6ep-20; 0x1.26255820e3b65p-19;
        0x1.4eed9bb8ea236p-20; 0x1.5e26f44151df1p-20; 0x1.f1c90b4b59f97p-20;
        0x1.b38fe9e1eeba4p-20; 0x1.5fd7fe1796496p-19; 0x1.1e66d1861f7cdp-19;
        0x1.1ad523821607fp-20; 0x1.6a0693d9b5ccbp-20; 0x1.0434ba447aab2p-19;
        0x1.13a9399508582p-19
      |] );
    ( "a100",
      "GFC",
      [|
        0x1.7556c878837b1p-24; 0x1.97476654ec864p-24; 0x1.6faeae291ca3ep-24;
        0x1.7556c878837b1p-24; 0x1.7556c878837b1p-24
      |] );
    ( "a100",
      "MEN",
      [|
        0x1.6a0693d9b5ccbp-23; 0x1.6a0693d9b5ccbp-23; 0x1.6a0693d9b5ccbp-23;
        0x1.6a0693d9b5ccbp-23; 0x1.6a0693d9b5ccbp-23
      |] );
    ( "a100",
      "VAR",
      [|
        0x1.6cdaa10169385p-23; 0x1.6cdaa10169385p-23; 0x1.6cdaa10169385p-23;
        0x1.6cdaa10169385p-23; 0x1.6cdaa10169385p-23
      |] );
    ( "a100",
      "SCN",
      [|
        0x1.6a0693d9b5ccbp-21; 0x1.6a0693d9b5ccbp-22; 0x1.6a0693d9b5ccbp-20;
        0x1.6a0693d9b5ccbp-20; 0x1.b7cdfd9d7bdbbp-21
      |] );
    ( "v100",
      "GMV",
      [|
        0x1.3da2fe4712579p-19; 0x1.3b317e4a76a1bp-19; 0x1.4c4bfe32b89a9p-19;
        0x1.5fd7fe1796496p-19; 0x1.3b317e4a76a1bp-19
      |] );
    ( "v100",
      "GMM",
      [|
        0x1.008d7e9bdd957p-12; 0x1.54295227cdcbfp-13; 0x1.6ad6be0852fbap-12;
        0x1.75d57df90fadfp-13; 0x1.419b6e418f5f1p-13
      |] );
    ( "v100",
      "C1D",
      [|
        0x1.2f7717f45805ap-18; 0x1.1b6dfe768e65cp-18; 0x1.224564d375962p-17;
        0x1.fc37fd3e83bf3p-18; 0x1.3b317e4a76a1bp-18; 0x1.3b317e4a76a1bp-18;
        0x1.bb3d9998b6d37p-18; 0x1.90b5fdd3c07e3p-18; 0x1.5af4fe1e5eddap-17;
        0x1.6297ae13c575fp-17; 0x1.accf3dacbf296p-18; 0x1.3b317e4a76a1bp-18;
        0x1.accf3dacbf296p-18; 0x1.02fefe98794b5p-17; 0x1.2533fe68fd3d1p-18;
        0x1.4c4bfe32b89a9p-18
      |] );
    ( "v100",
      "C2D",
      [|
        0x1.08c32ca4f302bp-14; 0x1.5c5345ca8d1a9p-15; 0x1.8e4c4f70b3878p-15;
        0x1.a982d0e4868d8p-15; 0x1.c24000c22f1ebp-15; 0x1.83073119f21d8p-14;
        0x1.683333ce8c188p-15; 0x1.873e2de0e51d8p-15; 0x1.5c5345ca8d1a9p-15;
        0x1.683333ce8c18ap-15; 0x1.1827d2f5fb2f9p-14; 0x1.1c7fa67512855p-15;
        0x1.45c827eef7045p-15; 0x1.3ea372c08f9f8p-15; 0x1.c732a3ee84087p-15;
        0x1.cf558e20a944cp-15
      |] );
    ( "v100",
      "C3D",
      [|
        0x1.8d24c2f76c84p-12; 0x1.966126c1a49efp-12; 0x1.e04445136576p-12;
        0x1.0eeb6f2bc314ap-12; 0x1.f9c67d41e8096p-13; 0x1.0e2666dae9126p-12;
        0x1.c92d4b99d932dp-13; 0x1.bec95b565a149p-13; 0x1.fe9cfaabd4a9dp-13;
        0x1.ddf52c20d76f3p-13; 0x1.ddf52c20d76f3p-13; 0x1.bec95b565a149p-13;
        0x1.d06f07b8bc238p-12; 0x1.966126c1a49efp-12; 0x1.e04445136576p-12;
        0x1.43b23baf4cd2dp-12
      |] );
    ( "v100",
      "T2D",
      [|
        0x1.4af3f7ce2fc36p-13; 0x1.c732a3ee84089p-14; 0x1.e3c8fd606ea4ep-14;
        0x1.7d29fdeee2cf7p-14; 0x1.a1d07dbc0277p-14; 0x1.08c32ca4f302bp-13;
        0x1.5a589e1f37f03p-14; 0x1.c24000c22f1ebp-14; 0x1.3ea372c08f9f9p-14;
        0x1.9ba83b3532653p-14; 0x1.620af147bc06bp-13; 0x1.c24000c22f1ebp-14;
        0x1.683333ce8c18ap-14; 0x1.1c7fa67512856p-13; 0x1.c24000c22f1ebp-14;
        0x1.cf558e20a944cp-14
      |] );
    ( "v100",
      "GRP",
      [|
        0x1.3ea372c08f9f9p-15; 0x1.1230d283619e2p-16; 0x1.1230d283619e2p-16;
        0x1.1230d283619e2p-16; 0x1.1230d283619e2p-16; 0x1.3ea372c08f9f9p-15;
        0x1.d51ffd74c861cp-17; 0x1.d51ffd74c861cp-17; 0x1.d51ffd74c861cp-17;
        0x1.d51ffd74c861cp-17; 0x1.16cf04687dab9p-15; 0x1.d51ffd74c861dp-17;
        0x1.d51ffd74c861dp-17; 0x1.d51ffd74c861dp-17; 0x1.d51ffd74c861dp-17;
        0x1.04a01ff25f36bp-15
      |] );
    ( "v100",
      "DIL",
      [|
        0x1.9db0f5c1bbb45p-12; 0x1.f1df634ce0695p-12; 0x1.b368173d30614p-12;
        0x1.07e1fe91b0b7p-12; 0x1.683333ce8c18ap-13; 0x1.43b23baf4cd2dp-12;
        0x1.09f1c28ed4187p-12; 0x1.6c288325366d2p-13; 0x1.a982d0e4868d8p-13;
        0x1.a74fddb460d02p-13; 0x1.359f5a7b2817ap-12; 0x1.745276c7f5bbdp-13;
        0x1.91525dd2e76bap-12; 0x1.09f1c28ed4187p-12; 0x1.e3c8fd606ea4ep-13;
        0x1.7a3b64595b287p-12
      |] );
    ( "v100",
      "DEP",
      [|
        0x1.9a7bfdc62f558p-12; 0x1.9a7bfdc62f558p-12; 0x1.672c7e0d696adp-12;
        0x1.672c7e0d696adp-12; 0x1.672c7e0d696adp-12; 0x1.672c7e0d696adp-12;
        0x1.672c7e0d696adp-12; 0x1.9a7bfdc62f558p-13; 0x1.9a7bfdc62f558p-13;
        0x1.672c7e0d696adp-13; 0x1.672c7e0d696adp-12; 0x1.672c7e0d696adp-13;
        0x1.672c7e0d696adp-13; 0x1.672c7e0d696adp-13; 0x1.672c7e0d696adp-11;
        0x1.672c7e0d696adp-11
      |] );
    ( "v100",
      "CAP",
      [|
        0x1.99ad9389dd3adp-14; 0x1.2f7717f45805ap-15; 0x1.111e625be8d1ep-15;
        0x1.5468a71d38712p-15; 0x1.a4902db831a3ap-15; 0x1.e9d51a24d66d6p-16;
        0x1.053e7457e9d3ep-15; 0x1.217249a1676f3p-15; 0x1.7ef5bc00df7f6p-16;
        0x1.87ddae83debddp-16; 0x1.fe9cfaabd4a9dp-16; 0x1.a924fdb1d5989p-16;
        0x1.7ef5bc00df7f6p-16; 0x1.fe9cfaabd4a9dp-15; 0x1.5468a71d38712p-16;
        0x1.5468a71d38712p-16
      |] );
    ( "v100",
      "BCV",
      [|
        0x1.9a7bfdc62f558p-18; 0x1.d51ffd74c861cp-20; 0x1.d51ffd74c861cp-20;
        0x1.2533fe68fd3d1p-19; 0x1.2533fe68fd3d1p-19; 0x1.949eca9b20078p-19;
        0x1.b368173d30614p-20; 0x1.c732a3ee84087p-20; 0x1.a982d0e4868d8p-19;
        0x1.7846fdf5ab63cp-19; 0x1.11a7fe841f8e6p-18; 0x1.745276c7f5bbdp-19;
        0x1.d1671479f32adp-20; 0x1.38bffe4ddaebdp-19; 0x1.c193fd8feab3p-19;
        0x1.e3c8fd606ea4fp-19
      |] );
    ( "v100",
      "GFC",
      [|
        0x1.4285fe4049c33p-23; 0x1.4c4bfe32b89a9p-23; 0x1.3da2fe4712579p-23;
        0x1.4285fe4049c33p-23; 0x1.4285fe4049c33p-23
      |] );
    ( "v100",
      "MEN",
      [|
        0x1.38bffe4ddaebdp-22; 0x1.38bffe4ddaebdp-22; 0x1.38bffe4ddaebdp-22;
        0x1.38bffe4ddaebdp-22; 0x1.38bffe4ddaebdp-22
      |] );
    ( "v100",
      "VAR",
      [|
        0x1.3b317e4a76a1bp-22; 0x1.3b317e4a76a1bp-22; 0x1.3b317e4a76a1bp-22;
        0x1.3b317e4a76a1bp-22; 0x1.3b317e4a76a1bp-22
      |] );
    ( "v100",
      "SCN",
      [|
        0x1.38bffe4ddaebdp-20; 0x1.38bffe4ddaebdp-21; 0x1.38bffe4ddaebdp-19;
        0x1.38bffe4ddaebdp-19; 0x1.1ddf7e732a1bap-20
      |] );
    ( "avx512",
      "GMV",
      [|
        0x1.25c6986831bbbp-16; 0x1.91df1a9ef0dafp-16
      |] );
    ( "avx512",
      "GMM",
      [|
        0x1.115db75153773p-7; 0x1.ce9e98b103675p-8
      |] );
    ( "avx512",
      "C1D",
      [|
        0x1.426e89739d85fp-13; 0x1.3469bb20acef8p-13; 0x1.2d6753f734a43p-13;
        0x1.426e89739d85fp-13; 0x1.818429e8d82b7p-13; 0x1.78c128f501cd4p-13;
        0x1.6c7cf46c6f49ap-13; 0x1.426e89739d85fp-13
      |] );
    ( "avx512",
      "C2D",
      [|
        0x1.22a0496c91034p-8; 0x1.ce9e98b103675p-9; 0x1.94cac59ae2fa6p-9;
        0x1.a7311467bebfcp-9; 0x1.8b979e3475178p-9; 0x1.1a20b84529d53p-8;
        0x1.a7311467bebfcp-9; 0x1.115db75153773p-8; 0x1.94cac59ae2fa6p-9;
        0x1.a7311467bebfcp-9; 0x1.d841e68a08cecp-9; 0x1.88f6b784e7fb4p-9;
        0x1.724af1dac6e7dp-9; 0x1.93ba17cf90b2ap-9; 0x1.8b979e3475178p-9;
        0x1.d841e68a08cebp-9
      |] );
    ( "avx512",
      "C3D",
      [|
        0x1.de6400ce52109p-6; 0x1.8b979e3475178p-6; 0x1.94cac59ae2fa6p-6;
        0x1.49262c50b0ce1p-6; 0x1.3d64cf4dcf0fdp-6; 0x1.3d64cf4dcf0fdp-6;
        0x1.28b1b6a757d1ap-6; 0x1.28b1b6a757d1ap-6; 0x1.2f9814342a3bdp-6;
        0x1.2f9814342a3bdp-6; 0x1.6abc5aa21136bp-6; 0x1.2f9814342a3bdp-6;
        0x1.8b979e3475178p-6; 0x1.94cac59ae2fa6p-6; 0x1.8b979e3475178p-6;
        0x1.49262c50b0ce1p-6
      |] );
    ( "avx512",
      "T2D",
      [|
        0x1.07ba69784e0fbp-7; 0x1.ce9e98b103675p-8; 0x1.94cac59ae2fa6p-8;
        0x1.a7311467bebfcp-8; 0x1.8b979e3475178p-8; 0x1.07ba69784e0fbp-7;
        0x1.94cac59ae2fa6p-8; 0x1.e3a5ce2d6c48ep-8; 0x1.94cac59ae2fa6p-8;
        0x1.a7311467bebfcp-8; 0x1.cd863892889b7p-8; 0x1.b9825bff1e1c9p-8;
        0x1.ab226e6f126a3p-8; 0x1.b0add5096011bp-8; 0x1.88f6b784e7fb4p-8;
        0x1.0ddc83bc97519p-7
      |] );
    ( "avx512",
      "GRP",
      [|
        0x1.94cac59ae2fa6p-11; 0x1.de6400ce52109p-13; 0x1.de6400ce52109p-13;
        0x1.de6400ce52109p-13; 0x1.de6400ce52109p-13; 0x1.8b979e3475178p-11;
        0x1.ce9e98b103675p-13; 0x1.ce9e98b103675p-13; 0x1.ce9e98b103675p-13;
        0x1.ce9e98b103675p-13; 0x1.b0add5096011bp-11; 0x1.88f6b784e7fb4p-13;
        0x1.88f6b784e7fb4p-13; 0x1.88f6b784e7fb4p-13; 0x1.88f6b784e7fb4p-13;
        0x1.a29780b487ce8p-11
      |] );
    ( "avx512",
      "DIL",
      [|
        0x1.1a20b84529d53p-6; 0x1.8b979e3475178p-7; 0x1.e3a5ce2d6c48ep-7;
        0x1.ce9e98b103675p-7; 0x1.a7311467bebfcp-7; 0x1.3eed55dee1606p-6;
        0x1.a7311467bebfcp-7; 0x1.c41afdf2cef65p-7; 0x1.ce9e98b103675p-7;
        0x1.94cac59ae2fa6p-7; 0x1.393b620d2fa34p-6; 0x1.8b979e3475178p-7;
        0x1.8b979e3475178p-7; 0x1.6f55ee5548282p-7; 0x1.bc3849e427a1bp-7;
        0x1.2729301645814p-6
      |] );
    ( "avx512",
      "DEP",
      [|
        0x1.80d43de9cc603p-12; 0x1.80d43de9cc603p-12; 0x1.69cf8bf5c056cp-12;
        0x1.762534e8a106p-12; 0x1.692d326ba1b47p-12; 0x1.76debfcf9f764p-12;
        0x1.56e2d2d8058e5p-12; 0x1.50b9b62c92d42p-8
      |] );
    ( "avx512",
      "CAP",
      [|
        0x1.043935e391ea2p-11; 0x1.33896e3b7de62p-11; 0x1.043935e391ea2p-11;
        0x1.6abc5aa21136bp-11; 0x1.33896e3b7de62p-11; 0x1.043935e391ea2p-11;
        0x1.3de2fa8eb9853p-11; 0x1.fc9e5db128d51p-12; 0x1.4fa6d56e1066dp-11;
        0x1.100d43f98ce9p-11; 0x1.fc9e5db128d51p-12; 0x1.33896e3b7de62p-11;
        0x1.fc9e5db128d51p-12; 0x1.5af6f284c28d8p-12; 0x1.53143e761b38cp-12;
        0x1.5af6f284c28d8p-12
      |] );
    ( "avx512",
      "BCV",
      [|
        0x1.1a20b84529d53p-14; 0x1.8b979e3475178p-15; 0x1.e3a5ce2d6c48ep-15;
        0x1.ce9e98b103675p-15; 0x1.8b979e3475178p-15; 0x1.3eed55dee1606p-14;
        0x1.ce9e98b103675p-15; 0x1.ca213d840baf8p-15; 0x1.01b2b29a4692bp-14;
        0x1.94cac59ae2fa6p-15; 0x1.393b620d2fa34p-14; 0x1.115db75153773p-14;
        0x1.8b979e3475178p-15; 0x1.6f55ee5548282p-15; 0x1.bc3849e427a1bp-15;
        0x1.38ac724df60e3p-14
      |] );
    ( "avx512",
      "GFC",
      [|
        0x1.9b37a42b913f6p-20; 0x1.29c8ce62a1321p-20
      |] );
    ( "avx512",
      "MEN",
      [|
        0x1.2533fe68fd3d1p-19; 0x1.2533fe68fd3d1p-19
      |] );
    ( "avx512",
      "VAR",
      [|
        0x1.277e6665cf379p-19; 0x1.277e6665cf379p-19
      |] );
    ( "avx512",
      "SCN",
      [|
        0x1.2533fe68fd3d1p-18; 0x1.2683154299cc4p-16
      |] );
  ]

(* preset, suite kind, mapping index, evaluations, (predicted, measured)
   seconds of each plan; population 16, 8 generations, 3 measured *)
let search_pins =
  [
    ( "a100",
      "C2D",
      0,
      144,
      [
        (0x1.2db93970da966p-15, 0x1.8d6deeef2b023p-15);
        (0x1.2db93970da966p-15, 0x1.8d6deeef2b023p-15);
        (0x1.2db93970da966p-15, 0x1.33d1f1f3d242fp-14)
      ] );
    ( "avx512",
      "GMM",
      0,
      144,
      [
        (0x1.c41afdf2cef65p-8, 0x1.16f2b257ab58ap-7);
        (0x1.c41afdf2cef65p-8, 0x1.2d6b8ad20e13cp-7);
        (0x1.c41afdf2cef65p-8, 0x1.c42375e264597p-8)
      ] );
  ]

let hex = Printf.sprintf "%h"

let representative_mappings name kind_name =
  let accel = Option.get (Accelerator.by_name name) in
  let kind = List.find (fun k -> Ops.kind_name k = kind_name) Ops.all_kinds in
  (accel, Compiler.mappings accel (Suites.representative ~batch:16 kind))

let pin_tests =
  [
    Alcotest.test_case "screen-scores-bit-exact" `Quick (fun () ->
        List.iter
          (fun (name, kind, pinned) ->
            let accel, mappings = representative_mappings name kind in
            let scores =
              List.filteri (fun i _ -> i < 16) mappings
              |> List.map (fun m -> hex (fst (Explore.screen_mapping ~accel m)))
            in
            Alcotest.(check (list string))
              (name ^ " " ^ kind)
              (List.map hex (Array.to_list pinned))
              scores)
          screen_pins);
    Alcotest.test_case "search-plans-bit-exact" `Quick (fun () ->
        List.iter
          (fun (name, kind, i, evaluations, pinned) ->
            let accel, mappings = representative_mappings name kind in
            let plans, evals =
              Explore.search_mapping ~population:16 ~generations:8
                ~measure_top:3 ~accel (List.nth mappings i)
            in
            let label = Printf.sprintf "%s %s mapping %d" name kind i in
            Alcotest.(check int) (label ^ ": evaluations") evaluations evals;
            Alcotest.(check (list (pair string string)))
              (label ^ ": (predicted, measured)")
              (List.map (fun (p, m) -> (hex p, hex m)) pinned)
              (List.map
                 (fun (p : Explore.plan) ->
                   (hex p.Explore.predicted, hex p.Explore.measured))
                 plans))
          search_pins);
  ]

let suites = [ ("explore.model_pins", pin_tests) ]
