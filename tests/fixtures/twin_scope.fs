# Every candidate obviously obviously appointed Hillary. (twin modifiers under a quantifier)
f:[PRED 'appoint';
   SUBJ g:[SPEC every; PRED 'candidate'];
   OBJ h:[PRED 'Hillary'];
   MODS { m1:[PRED 'obviously']; m2:[PRED 'obviously'] }]
