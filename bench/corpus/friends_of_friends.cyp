MATCH (p:Person {id: $personId})-[:KNOWS*1..2]-(friend:Person)
WHERE friend.id <> $personId
RETURN DISTINCT friend.id AS friendId, friend.firstName AS firstName
