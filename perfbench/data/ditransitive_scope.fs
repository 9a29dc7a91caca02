# Every candidate gave a manager some brief. (three stacked quantifiers)
f:[PRED 'give';
   SUBJ g:[SPEC every; PRED 'candidate'];
   OBJ h:[SPEC a; PRED 'manager'];
   OBJ2 i:[SPEC some; PRED 'brief']]
